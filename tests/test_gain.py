"""Coding-gain tests: distance determinants, minimum-determinant searches,
diversity products and the angle searches."""

import concurrent.futures
import functools
import math

import numpy as np
import pytest

from qostbc import gain, transforms
from qostbc.catalog import CODE_NAMES, OPT_THETA_2D, build, t8_cr_angles
from qostbc.modem import lex_vectors, make_qam
from qostbc.simulate import MAX_WORKERS

import closed_form

QAM4 = make_qam(4)
D4 = QAM4.d_min
THETA_OPT = 0.5 * math.atan(0.5)


class TestDistanceDet:
    def test_zero_pattern(self):
        assert gain.distance_det(build("Q4"), np.zeros(8)) == 0.0

    def test_single_rail_error(self):
        # the error matrix is d * identity, so the Gram determinant is d^8
        deltas = np.zeros(8)
        deltas[0] = D4
        assert gain.distance_det(build("Q4"), deltas) == pytest.approx(
            D4 ** 8, rel=1e-12
        )

    def test_mixed_code_worst_pair(self):
        deltas = np.zeros(8)
        deltas[0] = deltas[3] = D4
        got = gain.distance_det(build("Q4_LT"), deltas)
        assert got == pytest.approx(0.64 * D4 ** 8, rel=1e-9)

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="shape"):
            gain.distance_det(build("Q4"), np.zeros(6))


class TestClosedForm:
    def test_single_error_zero_angle(self):
        deltas = np.zeros(8)
        deltas[0] = D4
        assert closed_form.q4lt_det_closed_form(deltas, 0.0) == pytest.approx(
            D4 ** 8)

    def test_worst_pair_at_optimum(self):
        deltas = np.zeros(8)
        deltas[0] = deltas[3] = D4
        got = closed_form.q4lt_det_closed_form(deltas, THETA_OPT)
        assert got == pytest.approx(0.64 * D4 ** 8, rel=1e-12)

    def test_matches_numeric_determinant(self):
        # closed form against the generic Gram determinant of the mixed code
        code = build("Q4_LT")
        rng = np.random.default_rng(41)
        for _ in range(2000):
            deltas = rng.integers(-3, 4, size=8).astype(float) * D4
            numeric = gain.distance_det(code, deltas)
            closed = closed_form.q4lt_det_closed_form(deltas, THETA_OPT)
            assert numeric == pytest.approx(closed, rel=1e-9, abs=1e-9)


class TestCaseDets:
    def test_unit_multipliers_at_optimum(self):
        dets = gain.case_dets(1, 1, THETA_OPT)
        assert dets == pytest.approx((0.64,) * 4, rel=1e-12)

    def test_mixed_multipliers_at_optimum(self):
        # (m^2 - m n - n^2)^4 * 0.64 for the third case
        dets = gain.case_dets(2, 1, THETA_OPT)
        assert dets[2] == pytest.approx((4 - 2 - 1) ** 4 * 0.64, rel=1e-12)

    def test_rank_collapse_at_45_degrees(self):
        dets = gain.case_dets(3, 2, math.pi / 4)
        assert dets[0] == pytest.approx(0.0, abs=1e-12)
        assert dets[1] == pytest.approx(0.0, abs=1e-12)

    def test_pairwise_symmetry_over_angles(self):
        for theta in np.linspace(0.0, math.pi / 4, 17):
            d = gain.case_dets(1, 1, theta)
            assert d[0] == pytest.approx(d[1], rel=1e-12, abs=1e-15)
            assert d[2] == pytest.approx(d[3], rel=1e-12, abs=1e-15)

    def test_floor_holds_up_to_256qam(self):
        # at the optimum angle every multiplier pair stays at or above the
        # unit-pair value, with equality only at m = n = 1
        for m in range(1, 8):
            for n in range(1, 8):
                worst = min(gain.case_dets(m, n, THETA_OPT))
                if (m, n) == (1, 1):
                    assert worst == pytest.approx(0.64, rel=1e-12)
                else:
                    assert worst > 0.64 - 1e-9

    def test_sweep_rows_equal_case_dets(self):
        # all 40 509 cells of the benchmark's sweep, 16-QAM at step 0.01
        assert_sweep_rows_equal_case_dets(make_qam(16), 0.01)

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_sweep_rows_equal_case_dets_at_every_order(self, order):
        assert_sweep_rows_equal_case_dets(make_qam(order), 1.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            gain.case_dets(0, 1, 0.1)


def assert_sweep_rows_equal_case_dets(qam, step_deg):
    """Every cell of the sweep's case rows equals (==) its case_dets value."""
    levels = range(1, qam.levels_per_rail)
    for deg, _, cases in gain.case_sweep_rows(qam, step_deg=step_deg):
        assert cases == {
            (m, n): min(gain.case_dets(m, n, math.radians(deg)))
            * qam.d_min ** 8 for m in levels for n in levels
        }


class TestOptimalTheta:
    def test_analytic_value(self):
        assert math.degrees(OPT_THETA_2D) == pytest.approx(
            13.2825, abs=2e-4
        )

    @pytest.mark.parametrize("order", [4, 16])
    def test_grid_search_argmax(self, order):
        sweep = gain.theta_grid_search(make_qam(order), step_deg=0.05)
        assert abs(sweep.best_theta_deg - math.degrees(OPT_THETA_2D)) <= 0.05

    def test_grid_matches_full_pipeline_at_spot_angles(self):
        qam = make_qam(4)
        sweep = gain.theta_grid_search(qam, step_deg=1.0)
        base = build("Q4")
        for idx in (0, 7, 13, 20):
            theta = math.radians(sweep.thetas_deg[idx])
            spec = transforms.GcltSpec.rotations_2d(base.grouping, theta)
            mixed = transforms.apply_gclt(base, spec)
            want = gain.min_det_search(mixed, qam).min_det
            assert sweep.min_dets[idx] == pytest.approx(want, rel=1e-9,
                                                        abs=1e-12)


class TestMinDetSearch:
    def test_base_code_not_full_diversity(self):
        rep = gain.min_det_search(build("Q4"), QAM4)
        assert rep.min_det == pytest.approx(0.0, abs=1e-9)
        mults = rep.argmin / D4
        assert np.allclose(np.abs(mults[[0, 3]]), 1.0)

    def test_mixed_code_floor(self):
        rep = gain.min_det_search(build("Q4_LT"), QAM4)
        assert rep.min_det == pytest.approx(0.64 * D4 ** 8, rel=1e-9)

    def test_eight_antenna_mixed_floor(self):
        rep = gain.min_det_search(build("Q8_LT"), QAM4)
        want = 0.4096 * (math.sqrt(4.0 / 3.0) * D4) ** 16
        assert rep.min_det == pytest.approx(want, rel=1e-9)

    def test_per_group_minima_cover_partition(self):
        code = build("Q4_LT")
        rep = gain.min_det_search(code, QAM4)
        assert tuple(g.group for g in rep.per_group) == code.grouping
        assert rep.min_det == min(g.min_det for g in rep.per_group)

    def test_full_scope_budget_guard(self):
        with pytest.raises(gain.PatternBudgetError) as err:
            gain.min_det_search(build("T8"), make_qam(16), scope="full")
        assert err.value.count == 7 ** 16 - 1

    def test_unknown_scope(self):
        with pytest.raises(ValueError, match="scope"):
            gain.min_det_search(build("Q4"), QAM4, scope="everything")


class TestDiversityProduct:
    @pytest.mark.parametrize("name,zeta", [
        ("Q4_CR", 0.3536), ("Q4_LT", 0.3344),
        ("Q8_CR", 0.2887), ("Q8_LT", 0.2730),
        ("T8_CR", 0.2187), ("T8_LT", 0.1531),
    ])
    def test_full_diversity_values(self, name, zeta):
        rep = gain.diversity_product(build(name), QAM4)
        assert rep.full_diversity
        assert rep.zeta == pytest.approx(zeta, abs=1e-3)

    @pytest.mark.parametrize("name", ["Q4", "Q8", "T8"])
    def test_base_codes_lack_diversity(self, name):
        rep = gain.diversity_product(build(name), QAM4)
        assert not rep.full_diversity
        assert rep.zeta == 0.0

    def test_zeta_ratio_of_four_antenna_variants(self):
        z_lt = gain.diversity_product(build("Q4_LT"), QAM4).zeta
        z_cr = gain.diversity_product(build("Q4_CR"), QAM4).zeta
        assert z_lt / z_cr == pytest.approx(0.64 ** 0.125, abs=1e-4)

    def test_orthogonal_benchmark(self):
        rep = gain.diversity_product(build("G4C"), QAM4)
        assert rep.full_diversity


def every_pattern(mult, width):
    """Every nonzero pattern on ``width`` rails in lexicographic order (first
    rail slowest), enumerated independently of ``gain._patterns``."""
    grid = np.meshgrid(*[mult] * width, indexing="ij")
    rows = np.stack(grid, axis=-1).reshape(-1, width).astype(float)
    return rows[np.any(rows != 0, axis=1)]


def reference_mixed_min_det(base, constellation, rails, mix):
    """``gain._mixed_min_det(base, constellation, rails)(mix)`` over every
    nonzero pattern, both members of each pair +-c, with the evaluator's
    einsum contraction of the rails' factor forms."""
    idx = [r - 1 for r in rails]
    coeffs = every_pattern(gain._multipliers(constellation), len(idx)) @ mix
    forms = gain._det_factor_forms(base.dispersion[idx])
    q = np.einsum("ra,fab,rb->rf", coeffs, forms, coeffs)
    return (float((np.prod(q, axis=1) ** 2).min())
            * constellation.d_min ** (2 * base.nt))


def t8_zeta_over_every_group(angles) -> float:
    """The ``search-t8`` objective scored on each of T8's four groups over
    every nonzero pattern, with no group or pattern skipped."""
    base = build("T8")
    mix = transforms.givens_4d(list(angles))
    return gain._zeta_of(
        min(reference_mixed_min_det(base, QAM4, group, mix)
            for group in base.grouping), base)


class TestAngleSearches:
    def test_objective_equals_every_group_reference_bit_for_bit(self):
        # T8's groups have byte-equal factor forms, so scoring them once
        # must give the very bits that scoring all four gives
        objective = gain._t8_objective(QAM4)
        rng = np.random.default_rng(61)
        points = [rng.uniform(-np.pi / 2, np.pi / 2, 6) for _ in range(60)]
        found = gain.search_t8_angles(starts=8, seed=0)
        points.append(np.array(found.angles))
        got = objective(transforms.givens_4d(np.array(points)))
        assert got.tolist() == [t8_zeta_over_every_group(angles)
                                for angles in points]
        assert found.zeta == t8_zeta_over_every_group(found.angles)

    def test_fast_objective_matches_pipeline(self):
        objective = gain._t8_objective(QAM4)
        base = build("T8")
        rng = np.random.default_rng(53)
        points = rng.uniform(-np.pi / 2, np.pi / 2, (5, 6))
        for angles, got in zip(points,
                               objective(transforms.givens_4d(points))):
            spec = transforms.GcltSpec.givens_4d_spec(base.grouping,
                                                      list(angles))
            mixed = transforms.apply_gclt(base, spec)
            want = gain.diversity_product(mixed, QAM4).zeta
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("base_name, angles", [
        ("Q8", dict.fromkeys((4, 5, 6), math.radians(deg)))
        for deg in (10.0, 30.25, 60.0)
    ] + [
        ("T8", dict(t8_cr_angles(tuple(map(math.radians, steps)))))
        for steps in ((22.5, 22.5), (10.0, 25.0), (5.0, 17.5))
    ])
    def test_cr_evaluator_matches_pipeline(self, base_name, angles):
        # the CR searches score the base code's patterns under the group's
        # block of cr_rotation in the rotated code's groups; the rotated code
        # itself must agree
        base = build(base_name)
        code = transforms.apply_cr(
            base, transforms.CrSpec(tuple(sorted(angles.items()))))
        assert code.grouping == build(base_name + "_CR").grouping
        report = gain.diversity_product(code, QAM4)
        rotation = transforms.cr_rotation(base.K, angles.items())
        rng = np.random.default_rng(59)
        worst = math.inf
        for group, want in zip(code.grouping, report.report.per_group):
            rails = [r - 1 for r in group]
            mix = rotation[np.ix_(rails, rails)]
            c = rng.standard_normal((4, len(group)))
            assert np.allclose(
                np.einsum("rp,ptn->rtn", c @ mix, base.dispersion[rails]),
                np.einsum("rp,ptn->rtn", c, code.dispersion[rails]),
                rtol=0, atol=1e-12)
            got = float(gain._mixed_min_det(base, QAM4, group)(mix[None])[0])
            assert got == reference_mixed_min_det(base, QAM4, group, mix)
            assert got == pytest.approx(want.min_det, rel=1e-9)
            worst = min(worst, got)
        assert report.zeta > 0
        assert gain._zeta_of(worst, base) == pytest.approx(report.zeta,
                                                           abs=1e-10)

    @pytest.mark.parametrize("base_name, name, order", [
        ("T8", "T8", 4), ("T8", "T8", 16), ("Q8", "Q8_CR", 4),
        ("Q8", "Q8_CR", 16), ("T8", "T8_CR", 4),
    ])
    def test_evaluator_equals_full_scan(self, base_name, name, order):
        # one pattern of each pair +-c gives the bits of scoring both, for
        # any orthogonal mix of the searched groups
        base = build(base_name)
        qam = make_qam(order)
        rng = np.random.default_rng(67)
        for group in build(name).grouping:
            mixes = random_mixes(rng, 100, len(group))
            got = gain._mixed_min_det(base, qam, group)(mixes)
            assert got.tolist() == [
                reference_mixed_min_det(base, qam, group, mix)
                for mix in mixes]

    @pytest.mark.parametrize("base_name, name, order", [
        ("T8", "T8", 4), ("T8", "T8", 16), ("Q8", "Q8_CR", 4),
        ("Q8", "Q8_CR", 16), ("T8", "T8_CR", 4),
    ])
    def test_stacked_mixes_score_as_batches_of_one(self, base_name, name,
                                                   order):
        base = build(base_name)
        qam = make_qam(order)
        rng = np.random.default_rng(71)
        for group in build(name).grouping:
            min_det = gain._mixed_min_det(base, qam, group)
            for count in (1, 7, 64):
                mixes = random_mixes(rng, count, len(group))
                alone = [min_det(mix[None])[0] for mix in mixes]
                assert min_det(mixes).tolist() == alone

    @pytest.mark.parametrize("seed", range(4))
    def test_lockstep_search_equals_per_start_search(self, seed):
        # every start makes the comparisons of a search run alone, so the
        # lockstep result is the per-start oracle's for any worker count,
        # also when a worker gets no start
        for starts in (1, 3, 8):
            want = per_start_search(seed, starts)
            for workers in (1, 2, 3):
                assert gain.search_t8_angles(starts, seed, workers) == want
        assert gain.search_t8_angles(2, seed, 3) == per_start_search(seed, 2)

    def test_single_start_is_reproducible(self):
        a = gain.search_t8_angles(starts=1, seed=5)
        b = gain.search_t8_angles(starts=1, seed=5)
        assert a == b

    def test_multi_start_search_floor(self):
        # 64 starts must land at or above the floor set just under the
        # best known mixing for this code
        result = gain.search_t8_angles(starts=64, seed=1, workers=2)
        assert result.zeta >= 0.150

    def test_worker_count_does_not_change_result(self):
        a = gain.search_t8_angles(starts=3, seed=2, workers=1)
        b = gain.search_t8_angles(starts=3, seed=2, workers=3)
        assert a == b

    def test_rejects_zero_starts(self):
        with pytest.raises(ValueError):
            gain.search_t8_angles(starts=0)

    def test_rejects_negative_seed_before_the_pool(self, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("rejected input started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            no_threads)
        with pytest.raises(ValueError, match="seed"):
            gain.search_t8_angles(seed=-1, workers=2)

    def test_rejects_more_workers_than_the_cap(self, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("rejected input started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            no_threads)
        for workers in (0, MAX_WORKERS + 1, 10_000):
            with pytest.raises(ValueError, match="workers"):
                gain.search_t8_angles(starts=10_000, workers=workers)

    def test_t8_cr_step_search_is_pinned(self):
        # scoring each (family, step) once must not move a bit of the
        # result that scoring both families in every grid cell gives
        assert repr(gain.search_t8_cr_steps()) == (
            "AngleSearchResult(angles=(0.0, 0.0, 0.39269908169872414, "
            "0.39269908169872414, 0.7853981633974483, 0.7853981633974483, "
            "1.1780972450961724, 1.1780972450961724), "
            "zeta=0.2187131204240741)")


def random_mixes(rng, count, width):
    """``count`` random orthogonal width x width mixes, stacked."""
    return np.stack([np.linalg.qr(rng.standard_normal((width, width)))[0]
                     for _ in range(count)])


def scalar_golden_max(fun, lo, hi):
    """Golden-section maximisation of one function on [lo, hi], 25
    iterations, one point at a time."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(25):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


@functools.cache
def per_start_result(seed, index):
    """(-zeta, angles) of one ``search-t8`` start run alone: a scalar
    golden-section search with the mix built by ``givens_4d`` at every
    call and scored as a stack of one."""
    objective = gain._t8_objective(QAM4)

    def zeta(angles):
        return float(objective(transforms.givens_4d(angles)[None])[0])

    half_pi = math.pi / 2
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    angles = rng.uniform(-half_pi, half_pi, size=6)
    for _ in range(3):
        for j in range(6):
            def slice_fun(t, j=j):
                trial = angles.copy()
                trial[j] = t
                return zeta(trial)
            angles[j] = scalar_golden_max(slice_fun, -half_pi, half_pi)
    return -zeta(angles), tuple(float(a) for a in angles)


def per_start_search(seed, starts):
    """``search_t8_angles(starts, seed)`` from starts run one at a time."""
    neg_zeta, angles = min(per_start_result(seed, i) for i in range(starts))
    return gain.AngleSearchResult(angles=angles, zeta=-neg_zeta)


def reference_min_pattern(stack, mult, rails):
    """Unscreened scan: every nonzero pattern on ``rails`` scored with the
    exact determinant kernel. Returns the minimum, the first argmin in
    lexicographic order and the number of patterns attaining the minimum."""
    rows = every_pattern(mult, len(rails))
    coeffs = np.zeros((len(rows), len(stack)))
    coeffs[:, rails] = rows
    dets = gain._batched_dets(stack, coeffs)
    k = int(np.argmin(dets))
    return float(dets[k]), coeffs[k], int(np.count_nonzero(dets == dets[k]))


def reference_theta_sweep(constellation, step_deg):
    """The angle sweep with every nonzero rotated pattern scored, one angle
    at a time."""
    base = build("Q4")
    mult = gain._multipliers(constellation)
    coeffs = np.vstack([
        gain._embed(every_pattern(mult, len(group)),
                    [r - 1 for r in group], 8)
        for group in base.grouping
    ])
    thetas = np.arange(0.0, 45.0 + step_deg / 2, step_deg)
    mins = np.empty(len(thetas))
    for i, deg in enumerate(thetas):
        c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
        rot = coeffs.copy()
        for q, v in base.grouping:
            rot[:, q - 1] = coeffs[:, q - 1] * c - coeffs[:, v - 1] * s
            rot[:, v - 1] = coeffs[:, q - 1] * s + coeffs[:, v - 1] * c
        mins[i] = gain._batched_dets(base.dispersion, rot).min()
    return mins * constellation.d_min ** 8


class TestPatternPairs:
    """The searches enumerate one pattern of each pair +-c."""

    @pytest.mark.parametrize("order, width", [
        (4, 1), (4, 8), (16, 2), (16, 4), (64, 5),
    ])
    def test_patterns_are_those_with_a_negative_first_multiplier(
            self, order, width):
        mult = gain._multipliers(make_qam(order))
        chunks = list(gain._patterns(mult, width))
        assert all(len(rows) <= gain.PATTERN_CHUNK for rows in chunks)
        got = np.vstack(chunks)
        rows = every_pattern(mult, width)
        first = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
        assert len(got) == (len(mult) ** width - 1) // 2
        assert np.array_equal(got, rows[first < 0])

    @pytest.mark.parametrize("name, order", [
        (name, order) for order in (4, 16) for name in CODE_NAMES
    ])
    def test_negated_patterns_have_equal_determinants(self, name, order):
        # every pattern of each group; T8_CR at 16-QAM (2 882 400 per group)
        # is checked on its first chunk
        code = build(name)
        mult = gain._multipliers(make_qam(order))
        for group in code.grouping:
            rails = [r - 1 for r in group]
            rows = next(gain._patterns(mult, len(rails)))
            coeffs = gain._embed(rows, rails, len(code.dispersion))
            assert np.array_equal(gain._batched_dets(code.dispersion, -coeffs),
                                  gain._batched_dets(code.dispersion, coeffs))


class TestScreenedSearch:
    """The factor-form screen keeps every decision of the unscreened scan:
    the same minimum determinant and the same first argmin, compared with
    ``==``. Every enumeration of a stack with factor forms is screened.
    T8_CR at 16-QAM (two groups of 5 764 800 patterns) is left to the pinned
    ``divprod`` bytes in the CLI tests."""

    @pytest.mark.parametrize("name, order", [
        (name, order) for order in (4, 16) for name in CODE_NAMES
        if (name, order) != ("T8_CR", 16)
    ])
    def test_within_group_matches_unscreened(self, name, order):
        code = build(name)
        mult = gain._multipliers(make_qam(order))
        ties = 0
        for group in code.grouping:
            rails = [r - 1 for r in group]
            got_val, got_pat = gain._min_pattern(code.dispersion, mult, rails)
            want_val, want_pat, count = reference_min_pattern(
                code.dispersion, mult, rails)
            assert got_val == want_val
            assert np.array_equal(got_pat, want_pat)
            ties = max(ties, count)
        if name in ("Q4", "Q8", "T8"):
            # rank-deficient: several patterns tie at the minimum, so the
            # lexicographic tie-break is exercised
            assert ties > 1

    @pytest.mark.parametrize("name", ["Q4", "Q4_CR", "Q4_LT", "Q8_LT"])
    def test_full_scope_matches_unscreened(self, name):
        code = build(name)
        mult = gain._multipliers(QAM4)
        rails = list(range(2 * code.K))
        got_val, got_pat = gain._min_pattern(code.dispersion, mult, rails)
        want_val, want_pat, _ = reference_min_pattern(code.dispersion, mult,
                                                      rails)
        assert got_val == want_val
        assert np.array_equal(got_pat, want_pat)

    @pytest.mark.parametrize("name, rails, order", [
        ("T8_CR", [0, 1, 2], 4), ("T8_CR", [0, 2, 3, 5, 7], 4),
        ("T8_CR", [0, 1, 2, 3, 4, 5, 6], 4), ("T8_CR", [1, 4, 6], 16),
        ("Q4_CR", [0, 1, 3], 64),
    ])
    def test_odd_rail_subsets_match_unscreened(self, name, rails, order):
        # a subset of a group's rails keeps its factor forms; the tables
        # split an odd width unevenly
        code = build(name)
        rails = [code.grouping[0][r] - 1 for r in rails]
        mult = gain._multipliers(make_qam(order))
        assert gain._det_factor_forms(code.dispersion[rails]) is not None
        got_val, got_pat = gain._min_pattern(code.dispersion, mult, rails)
        want_val, want_pat, _ = reference_min_pattern(code.dispersion, mult,
                                                      rails)
        assert got_val == want_val
        assert np.array_equal(got_pat, want_pat)

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_theta_sweep_matches_unscreened(self, order):
        qam = make_qam(order)
        sweep = gain.theta_grid_search(qam, step_deg=1.0)
        assert np.array_equal(sweep.min_dets, reference_theta_sweep(qam, 1.0))

    def test_screen_keeps_few_rows_and_the_minimum(self):
        code = build("Q8_LT")
        mult = gain._multipliers(QAM4)
        forms = gain._det_factor_forms(code.dispersion)
        lo, q = next(gain._form_blocks(forms, mult))
        keep = gain._near_min(q)
        rows = lex_vectors(mult, 2 * code.K, lo + np.arange(q.shape[1]))
        dets = gain._batched_dets(code.dispersion, rows)
        assert keep[dets == dets.min()].all()
        assert keep.sum() < len(rows) // 100


def assert_form_blocks_are_exact(forms, mult, blocks=None):
    """The table blocks of :func:`gain._form_blocks` cover the
    :func:`gain._patterns` indices in order, at most PATTERN_CHUNK at a
    time, and every q_k lies within 1e-12 max_k |q_k| of its value in
    extended precision (``blocks`` selects some blocks by position)."""
    width = forms.shape[1]
    half = len(mult) ** width // 2
    got = list(gain._form_blocks(forms, mult))
    starts = [lo for lo, _ in got]
    sizes = [q.shape[1] for _, q in got]
    assert starts == list(np.cumsum([0] + sizes[:-1]))
    assert sum(sizes) == half
    assert max(sizes) <= gain.PATTERN_CHUNK
    exact = forms.astype(np.longdouble)
    for lo, q in (got if blocks is None else [got[b] for b in blocks]):
        rows = lex_vectors(mult, width, lo + np.arange(q.shape[1]))
        rows = rows.astype(np.longdouble)
        want = np.einsum("ra,fab,rb->fr", rows, exact, rows)
        err = np.abs(q - want).max(axis=0) / np.abs(want).max(axis=0)
        assert err.max() <= 1e-12


class TestFormTables:
    """The screen's factor values come from prefix and suffix tables; their
    rounding stays far inside SCREEN_RTOL."""

    @pytest.mark.parametrize("name, order", [
        (name, order) for order in (4, 16) for name in CODE_NAMES
    ])
    def test_every_group_enumeration(self, name, order):
        # T8_CR at 16-QAM (2 882 400 patterns per group) on its first block
        # and its last, which ends inside a prefix
        code = build(name)
        mult = gain._multipliers(make_qam(order))
        blocks = [0, -1] if (name, order) == ("T8_CR", 16) else None
        for group in code.grouping:
            forms = gain._det_factor_forms(
                code.dispersion[[r - 1 for r in group]])
            assert_form_blocks_are_exact(forms, mult, blocks)

    def test_full_stack_ending_inside_a_prefix(self):
        # 3^12 // 2 = 265 720 = 364 * 729 + 364: the last block stops at
        # suffix 364 of prefix 364
        code = build("Q8_LT")
        forms = gain._det_factor_forms(code.dispersion)
        assert_form_blocks_are_exact(forms, gain._multipliers(QAM4))

    @pytest.mark.parametrize("name, width, order", [
        ("G4C", 1, 4), ("G4C", 1, 256), ("T8_CR", 3, 16),
        ("T8_CR", 5, 4), ("T8_CR", 7, 4), ("Q4_CR", 3, 256),
    ])
    def test_narrow_and_odd_widths(self, name, width, order):
        code = build(name)
        rails = [r - 1 for r in code.grouping[0][:width]]
        forms = gain._det_factor_forms(code.dispersion[rails])
        assert_form_blocks_are_exact(forms, gain._multipliers(make_qam(order)))
