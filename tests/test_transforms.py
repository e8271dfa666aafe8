"""Group mixing (GCLT) and constellation rotation tests."""

import math
import re

import numpy as np
import pytest

from qostbc import transforms
from qostbc.analysis import components_from_stack
from qostbc.catalog import CodeDefinition, build, validate_power

THETA_OPT = 0.5 * math.atan(0.5)


class TestRotation2D:
    def test_zero_angle(self):
        assert np.array_equal(transforms.rotation_2d(0.0), np.eye(2))

    def test_optimal_angle_values(self):
        # cos/sin of 0.5*atan(1/2) = 13.2825 degrees
        out = transforms.rotation_2d(THETA_OPT)
        assert out == pytest.approx(
            np.array([[0.97324, 0.22975], [-0.22975, 0.97324]]), abs=1e-5
        )

    def test_quarter_turn(self):
        out = transforms.rotation_2d(math.pi / 2)
        assert out == pytest.approx(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                    abs=1e-15)


class TestGivens:
    def test_all_zero_angles(self):
        assert np.array_equal(transforms.givens_4d([0.0] * 6), np.eye(4))

    def test_single_plane_matrix(self):
        th = 0.7
        # GIVENS_ORDER_4D: (1,2), (1,3), (1,4), (2,3), (2,4), (3,4)
        out = transforms.givens_4d([0, 0, 0, th, 0, 0])
        expected = np.array([
            [1, 0, 0, 0],
            [0, math.cos(th), math.sin(th), 0],
            [0, -math.sin(th), math.cos(th), 0],
            [0, 0, 0, 1],
        ])
        assert np.abs(out - expected).max() < 1e-15

    def test_searched_angle_set_is_orthogonal(self):
        degs = {(1, 2): -45.66, (1, 3): 9.13, (1, 4): 37.78,
                (2, 3): 9.43, (2, 4): 44.24, (3, 4): -46.11}
        out = transforms.givens_4d(
            [math.radians(degs[p]) for p in transforms.GIVENS_ORDER_4D])
        assert np.abs(out.T @ out - np.eye(4)).max() < 1e-12

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_angle(self, theta):
        with pytest.raises(ValueError, match="not finite"):
            transforms.givens_rotation(4, 1, 2, theta)
        with pytest.raises(ValueError, match="not finite"):
            transforms.givens_4d([0, 0, 0, theta, 0, 0])

    def test_orthogonality_over_random_draws(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            out = transforms.givens_4d(rng.uniform(-np.pi, np.pi, 6))
            assert np.abs(out.T @ out - np.eye(4)).max() < 1e-12

    def test_product_equals_eye_built_factors_bit_for_bit(self):
        def rotation(i, k, theta):
            g = np.eye(4)
            g[i - 1, i - 1] = g[k - 1, k - 1] = math.cos(theta)
            g[i - 1, k - 1] = math.sin(theta)
            g[k - 1, i - 1] = -math.sin(theta)
            return g

        rng = np.random.default_rng(7)
        draws = [rng.uniform(-np.pi, np.pi, 6) for _ in range(200)]
        for angles in draws + [np.zeros(6), -np.zeros(6)]:
            want = np.eye(4)
            for (i, k), theta in zip(transforms.GIVENS_ORDER_4D, angles):
                want = want @ rotation(i, k, theta)
            assert transforms.givens_4d(angles).tobytes() == want.tobytes()

    def test_equals_the_givens_product_form_bit_for_bit(self):
        # the form givens_4d had before it became a line search at j = 0
        def product_form(angles):
            values = np.asarray(angles, dtype=np.float64)
            return transforms.givens_product(4, [
                (i, k, values[..., j])
                for j, (i, k) in enumerate(transforms.GIVENS_ORDER_4D)])

        points = np.random.default_rng(23).uniform(-np.pi, np.pi, (8, 6))
        for angles in (points, points[3]):
            got = transforms.givens_4d(angles)
            assert got.shape == angles.shape[:-1] + (4, 4)
            assert got.tobytes() == product_form(angles).tobytes()

    def test_stacked_angles_give_each_angle_s_matrix_bit_for_bit(self):
        rng = np.random.default_rng(11)
        thetas = np.append(rng.uniform(-np.pi, np.pi, 9), [0.0, -0.0])
        stack = transforms.givens_rotation(4, 2, 4, thetas)
        assert stack.shape == (11, 4, 4)
        for theta, g in zip(thetas, stack):
            want = transforms.givens_rotation(4, 2, 4, float(theta))
            assert g.tobytes() == want.tobytes()
        points = rng.uniform(-np.pi, np.pi, (9, 6))
        stack = transforms.givens_4d(points)
        for angles, g in zip(points, stack):
            assert g.tobytes() == transforms.givens_4d(angles).tobytes()

    @pytest.mark.parametrize("j", range(6))
    def test_line_equals_givens_4d_with_one_angle_set(self, j):
        rng = np.random.default_rng(13 + j)
        points = rng.uniform(-np.pi, np.pi, (5, 6))
        line = transforms.givens_4d_line(points, j)
        for _ in range(3):
            t = rng.uniform(-np.pi, np.pi, 5)
            trial = points.copy()
            trial[:, j] = t
            assert line(t).tobytes() == transforms.givens_4d(trial).tobytes()

    def test_rejects_non_finite_angle_in_a_stack(self):
        with pytest.raises(ValueError, match="nan is not finite"):
            transforms.givens_rotation(4, 1, 2, np.array([0.1, np.nan]))

    def test_rotation_is_a_fresh_writable_array(self):
        g = transforms.givens_rotation(3, 1, 2, 0.5)
        g[2, 2] = 7.0
        assert transforms.givens_rotation(3, 1, 2, 0.0)[2, 2] == 1.0

    def test_wrong_angle_count(self):
        with pytest.raises(ValueError, match="six"):
            transforms.givens_4d([0.0] * 5)

    def test_invalid_plane(self):
        with pytest.raises(ValueError, match="plane"):
            transforms.givens_rotation(4, 3, 3, 0.1)


class TestGcltSpec:
    def test_rejects_non_orthogonal_matrix(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            transforms.GcltSpec(
                ((1, 2),), (np.array([[1.0, 0.0], [1.0, 1.0]]),)
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_matrix(self, value):
        # NaN compares False with the orthogonality tolerance, so finiteness
        # is checked on its own
        for mat in (np.full((2, 2), value),
                    np.array([[1.0, 0.0], [0.0, value]])):
            with pytest.raises(ValueError,
                               match="mixing matrix for group .* non-finite"):
                transforms.GcltSpec(((1, 2),), (mat,))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="mixing matrix"):
            transforms.GcltSpec(((1, 2, 3),), (np.eye(2),))

    def test_rotation_spec_needs_pairs(self):
        with pytest.raises(ValueError, match="needs a 4x4 mixing matrix"):
            transforms.GcltSpec.rotations_2d(((1, 2, 3, 4),), 0.1)

    def test_stores_tuples_and_float_copies(self):
        mat = np.array([[0, 1], [-1, 0]])
        spec = transforms.GcltSpec([[1, 2], [3, 4]], [mat, mat])
        assert spec.groups == ((1, 2), (3, 4))
        assert isinstance(spec.matrices, tuple)
        for stored in spec.matrices:
            assert stored.dtype == np.float64
            assert np.array_equal(stored, mat)
            assert not np.shares_memory(stored, mat)
        assert not np.shares_memory(*spec.matrices)
        mat[0, 1] = 7
        assert spec.matrices[0][0, 1] == 1.0

    def test_per_group_angles(self):
        spec = transforms.GcltSpec(
            ((1, 2), (3, 4)),
            (transforms.rotation_2d(0.1), transforms.rotation_2d(0.2)))
        assert spec.matrices[0][0, 1] == pytest.approx(math.sin(0.1))
        assert spec.matrices[1][0, 1] == pytest.approx(math.sin(0.2))


class TestApplyGclt:
    def test_zero_angle_is_identity(self):
        code = build("Q4")
        spec = transforms.GcltSpec.rotations_2d(code.grouping, 0.0)
        out = transforms.apply_gclt(code, spec)
        assert np.abs(out.dispersion - code.dispersion).max() < 1e-15

    def test_group_mismatch_rejected(self):
        code = build("Q4")
        spec = transforms.GcltSpec.rotations_2d(((1, 2), (3, 4), (5, 6), (7, 8)),
                                                0.3)
        with pytest.raises(ValueError, match="do not match"):
            transforms.apply_gclt(code, spec)

    def test_degenerate_mixing_row_rejected(self):
        # duplicated dispersion matrices make one mixed output vanish
        base = build("Q4").dispersion
        stack = np.stack([base[0], base[0]])
        code = CodeDefinition("dup", stack)
        assert code.grouping == ((1, 2),)
        spec = transforms.GcltSpec.rotations_2d(code.grouping, math.pi / 4)
        with pytest.raises(ValueError, match="degenerate"):
            transforms.apply_gclt(code, spec)

    def test_power_restored_after_mixing(self):
        rng = np.random.default_rng(21)
        for name in ("Q4", "Q8", "T8"):
            code = build(name)
            mats = []
            for group in code.grouping:
                if len(group) == 2:
                    mats.append(transforms.rotation_2d(rng.uniform(0, np.pi)))
                else:
                    mats.append(
                        transforms.givens_4d(rng.uniform(-np.pi, np.pi, 6))
                    )
            spec = transforms.GcltSpec(code.grouping, mats)
            out = transforms.apply_gclt(code, spec)
            _, ok = validate_power(out)
            assert ok

    def test_grouping_preserved_under_random_mixing(self):
        # smaller copy of the acceptance property (100 draws live there)
        rng = np.random.default_rng(22)
        for name in ("Q4", "Q8", "T8"):
            code = build(name)
            for _ in range(20):
                mats = []
                for group in code.grouping:
                    if len(group) == 2:
                        mats.append(
                            transforms.rotation_2d(rng.uniform(0, np.pi))
                        )
                    else:
                        mats.append(
                            transforms.givens_4d(rng.uniform(-np.pi, np.pi, 6))
                        )
                spec = transforms.GcltSpec(code.grouping, mats)
                out = transforms.apply_gclt(code, spec)
                assert out.grouping == code.grouping


class TestCrAngleCheck:
    def test_angle_range(self):
        for phi in (math.pi / 2, -0.1):
            with pytest.raises(ValueError, match="outside"):
                transforms.cr_rotation(4, [(1, phi)])
            with pytest.raises(ValueError, match="outside"):
                transforms.apply_cr(build("Q4"), [(1, phi)])

    def test_duplicate_symbols(self):
        with pytest.raises(ValueError, match="duplicate"):
            transforms.cr_rotation(4, [(1, 0.1), (1, 0.2)])
        with pytest.raises(ValueError, match="duplicate"):
            transforms.apply_cr(build("Q4"), [(1, 0.1), (1, 0.2)])

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle(self, phi):
        with pytest.raises(ValueError, match=f"angle {phi} for symbol 2"):
            transforms.cr_rotation(4, [(1, 0.1), (2, phi)])
        with pytest.raises(ValueError, match=f"angle {phi} for symbol 2"):
            transforms.apply_cr(build("Q4"), [(1, 0.1), (2, phi)])

    @pytest.mark.parametrize("phi", [np.array([0.1, 0.2]), np.array([0.1]),
                                     [[0.1]]])
    def test_apply_cr_rejects_an_angle_array(self, phi):
        # cr_rotation takes arrays of angles; apply_cr builds one code
        with pytest.raises(ValueError, match=re.escape(
                f"symbol 3 must be a scalar, got shape {np.shape(phi)}")):
            transforms.apply_cr(build("Q4"), [(3, phi)])

    def test_apply_cr_takes_a_zero_dimensional_angle(self):
        code = build("Q4")
        got = transforms.apply_cr(code, [(3, np.array(0.4))]).dispersion
        want = transforms.apply_cr(code, [(3, 0.4)]).dispersion
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [math.pi / 2, -0.1, math.nan, math.inf])
    def test_one_bad_entry_of_a_search_grid(self, bad):
        phis = np.array([math.radians(d) for d in np.arange(0.25, 90.0, 0.25)])
        transforms.cr_rotation(6, [(s, phis) for s in (4, 5, 6)])
        phis[200] = bad
        with pytest.raises(ValueError, match=f"angle {bad!r} for symbol 4"):
            transforms.cr_rotation(6, [(s, phis) for s in (4, 5, 6)])


class TestApplyCr:
    def test_zero_angle_is_identity(self):
        code = build("Q4")
        out = transforms.apply_cr(code, [(1, 0.0), (2, 0.0)])
        assert np.abs(out.dispersion - code.dispersion).max() < 1e-15

    def test_rotation_collapses_groups(self):
        code = build("Q4")
        out = transforms.apply_cr(code, [(3, math.pi / 4), (4, math.pi / 4)])
        assert len(code.grouping) == 4
        assert out.grouping == ((1, 4, 5, 8), (2, 3, 6, 7))

    def test_symbol_index_out_of_range(self):
        code = build("Q4")
        with pytest.raises(ValueError, match="outside"):
            transforms.apply_cr(code, [(5, 0.3)])

    def test_stacked_rotation_angles_give_each_angle_s_rotation(self):
        phis = np.random.default_rng(17).uniform(0, np.pi / 2, 7)
        stack = transforms.cr_rotation(6, [(s, phis) for s in (4, 5, 6)])
        assert stack.shape == (7, 12, 12)
        for phi, rot in zip(phis, stack):
            want = transforms.cr_rotation(6, [(s, phi) for s in (4, 5, 6)])
            assert rot.tobytes() == want.tobytes()

    def test_power_preserved(self):
        code = build("Q8")
        out = transforms.apply_cr(code, [(s, 0.4) for s in (4, 5, 6)])
        _, ok = validate_power(out)
        assert ok


def test_grouping_recomputed_not_copied():
    # the transform output's grouping comes from its own matrices
    code = build("Q4")
    out = transforms.apply_cr(code, [(3, math.pi / 4), (4, math.pi / 4)])
    assert components_from_stack(out.dispersion) == out.grouping
    assert out.grouping != code.grouping
