"""Detector tests: grouped vs exhaustive ML agreement and the closed-form
metric cross-checks."""

import itertools
import tracemalloc

import numpy as np
import pytest

from qostbc import decoder
from qostbc.analysis import equivalent_channel, expansion_stack
from qostbc.catalog import CODE_NAMES, build
from qostbc.modem import make_qam
from qostbc.simulate import draw_channel, transmit
from qostbc.transforms import CrSpec, apply_cr

import closed_form
from closed_form import unstack_received

QAM4 = make_qam(4)


def send(code, s, h, rho, noise):
    """Transmit one codeword as a batch of one."""
    H = equivalent_channel(code, h)
    return transmit(code, H[None], s[None], rho, noise[None])[0]


def grouped_detect(code, constellation, h, r, rho):
    """Grouped detection of one block as a batch of one."""
    H = equivalent_channel(code, h)
    return decoder.detect_from_equivalent_batch(
        code, constellation, H[None], r[None], rho
    )[0]


def random_transmission(code, constellation, rng, rho, nr=1):
    h = draw_channel(rng, code.nt, nr)
    bits = rng.integers(0, 2, code.K * constellation.bits_per_symbol)
    s = constellation.modulate(bits)
    noise = rng.standard_normal(2 * code.T * nr) * np.sqrt(0.5)
    r = send(code, s, h, rho, noise)
    return h, s, r


class TestNoiselessConsistency:
    @pytest.mark.parametrize("name", ["Q4", "Q4_CR", "Q4_LT", "Q8", "Q8_CR",
                                      "Q8_LT", "T8", "T8_CR", "T8_LT", "G4C"])
    def test_transmitted_recovered(self, name):
        code = build(name)
        rng = np.random.default_rng(997)
        for _ in range(5):
            h = draw_channel(rng, code.nt, 1)
            bits = rng.integers(0, 2, code.K * QAM4.bits_per_symbol)
            s = QAM4.modulate(bits)
            r = send(code, s, h, 10.0, np.zeros(2 * code.T))
            out = grouped_detect(code, QAM4, h, r, 10.0)
            assert np.allclose(out, s, atol=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("name", ["Q4", "Q4_CR", "Q4_LT"])
    @pytest.mark.parametrize("nr", [1, 2])
    def test_grouped_equals_exhaustive(self, name, nr):
        code = build(name)
        rng = np.random.default_rng(abs(hash((name, nr))) % 2 ** 32)
        rho = 6.0
        for _ in range(250):
            h, s, r = random_transmission(code, QAM4, rng, rho, nr)
            g = grouped_detect(code, QAM4, h, r, rho)
            e = decoder.exhaustive_ml_detect(code, QAM4, h, r, rho)
            assert np.array_equal(g, e)

    def test_batch_matches_single(self):
        code = build("Q4_LT")
        rng = np.random.default_rng(5)
        n = 64
        h = (rng.standard_normal((n, 4, 1))
             + 1j * rng.standard_normal((n, 4, 1))) / np.sqrt(2)
        bits = rng.integers(0, 2, (n, 8))
        s = QAM4.modulate(bits)
        rho = 8.0
        received = np.empty((n, 8))
        for i in range(n):
            H = equivalent_channel(code, h[i])
            received[i] = np.sqrt(rho / 4) * (H @ s[i]) \
                + rng.standard_normal(8) * np.sqrt(0.5)
        batch = decoder.detect_from_equivalent_batch(
            code, QAM4, equivalent_channel(code, h), received, rho
        )
        for i in range(n):
            single = grouped_detect(code, QAM4, h[i], received[i], rho)
            assert np.array_equal(batch[i], single)

    def test_received_shape_checked(self):
        code = build("Q4")
        H = equivalent_channel(code, np.ones((3, 4, 1)))
        with pytest.raises(ValueError, match="received batch"):
            decoder.detect_from_equivalent_batch(code, QAM4, H,
                                                 np.zeros((3, 16)), 1.0)

    def test_exhaustive_budget_guard(self):
        code = build("T8")
        with pytest.raises(ValueError, match="budget"):
            decoder.exhaustive_ml_detect(code, make_qam(16),
                                         np.zeros((8, 1)), np.zeros(32), 1.0)

    def test_zero_channel_tie_break(self):
        # all metrics tie at zero; both detectors must pick the
        # lexicographically smallest candidate
        code = build("Q4")
        h = np.zeros((4, 1), dtype=complex)
        r = np.zeros(8)
        g = grouped_detect(code, QAM4, h, r, 1.0)
        e = decoder.exhaustive_ml_detect(code, QAM4, h, r, 1.0)
        lowest = np.min(QAM4.pam_levels)
        assert np.all(g == lowest)
        assert np.array_equal(g, e)


class TestCandidateCounts:
    def test_group_candidate_enumeration(self):
        # two real rails -> 4 candidates, four real rails -> 16 at 4-QAM
        assert decoder.group_candidates(QAM4, 2).shape == (4, 2)
        assert decoder.group_candidates(QAM4, 4).shape == (16, 4)

    def test_counts_match_joint_detection_sizes(self):
        for name, count in (("Q4_LT", 4), ("Q4_CR", 16), ("T8_CR", 256)):
            code = build(name)
            size = max(len(g) for g in code.grouping)
            cands = decoder.group_candidates(QAM4, size)
            assert len(cands) == count

    def test_candidates_sorted_lexicographically(self):
        cands = decoder.group_candidates(QAM4, 2)
        as_tuples = [tuple(c) for c in cands]
        assert as_tuples == sorted(as_tuples)


def uncompressed_detect(code, constellation, H, r, rho):
    """Grouped detection with every upper-triangle Gram entry as a metric
    feature and one unsplit product per group: the reference for the
    class-compressed, blocked detector."""
    gram = np.swapaxes(H, 1, 2) @ H
    z = np.einsum("btp,bt->bp", H, r)
    factor = np.sqrt(rho / code.nt)
    decided = np.empty((len(H), 2 * code.K))
    for group in code.grouping:
        idx = np.array(group) - 1
        cands = decoder.group_candidates(constellation, len(idx))
        rows, cols = np.triu_indices(len(idx))
        pairs = cands[:, rows] * cands[:, cols]
        pairs[:, rows != cols] *= 2.0
        features = np.concatenate([pairs, cands], axis=1).T
        weights = np.concatenate(
            [factor * gram[:, idx[rows], idx[cols]], -2.0 * z[:, idx]], axis=1
        )
        decided[:, idx] = cands[np.argmin(weights @ features, axis=1)]
    return decided


def random_batch(code, constellation, n, seed, snr_db=6.0, nr=1):
    """(H, r, rho) of n random codewords sent at ``snr_db``."""
    rng = np.random.default_rng(seed)
    rho = 10.0 ** (snr_db / 10.0)
    h = draw_channel(rng, code.nt, nr, batch=n)
    bits = rng.integers(0, 2, (n, code.K * constellation.bits_per_symbol))
    H = equivalent_channel(code, h)
    noise = rng.standard_normal(H.shape[:2]) * np.sqrt(0.5)
    return H, transmit(code, H, constellation.modulate(bits), rho, noise), rho


def group_stack(code, group):
    return expansion_stack(code)[np.array(group) - 1]


def group_metric(code, constellation, group, H, r, rho):
    """The compressed metric weights @ features of one group, one block."""
    idx = np.array(group) - 1
    cands, reps, features = decoder.group_tables(constellation,
                                                 group_stack(code, group))
    gram, z = H.T @ H, H.T @ r
    weights = np.concatenate([
        np.sqrt(rho / code.nt) * gram[idx[reps[:, 0]], idx[reps[:, 1]]],
        -2.0 * z[idx],
    ])
    return cands, weights @ features


class TestCompressedMetric:
    @pytest.mark.parametrize("name, classes", [
        ("Q4_CR", 2), ("T8_CR", 6), ("Q4_LT", 3), ("T8_LT", 10), ("G4C", 1),
    ])
    def test_class_counts(self, name, classes):
        # Q4_CR's 10 upper-triangle entries per group are 2 functionals up to
        # sign and T8_CR's 36 are 6; T8_LT keeps all 10
        code = build(name)
        for group in code.grouping:
            reps, merge = decoder.gram_classes(group_stack(code, group))
            g = len(group)
            assert reps.shape == (classes, 2)
            assert merge.shape == (classes, g * (g + 1) // 2)
            assert set(np.unique(merge)) <= {-1.0, 0.0, 1.0}
            assert np.all(np.count_nonzero(merge, axis=0) <= 1)

    @pytest.mark.parametrize("name, mod, nr, top", [
        ("T8_CR", 4, 1, 12.0), ("Q4_CR", 16, 1, 24.0),
        ("Q4_LT", 64, 1, 30.0), ("Q8_LT", 4, 2, 8.0),
        ("T8_LT", 4, 2, 8.0), ("G4C", 16, 2, 12.0),
    ])
    def test_benchmark_curves_decide_like_uncompressed(self, name, mod, nr,
                                                        top):
        code, qam = build(name), make_qam(mod)
        for snr_db in (0.0, top):
            for batch in range(8):
                H, r, rho = random_batch(code, qam, 4096,
                                         [59, batch, int(snr_db)], snr_db, nr)
                got = decoder.detect_from_equivalent_batch(code, qam, H, r,
                                                           rho)
                assert np.array_equal(
                    got, uncompressed_detect(code, qam, H, r, rho))

    def test_tables_follow_the_code_content(self):
        # two Q8_CR codes of one name but different CR angles
        base = build("Q8")
        qam = make_qam(16)
        codes = [apply_cr(base, CrSpec.uniform((4, 5, 6), phi), name="Q8_CR")
                 for phi in (np.pi / 4, np.pi / 5)]
        group = codes[0].grouping[0]
        assert codes[1].grouping == codes[0].grouping
        tables = [decoder.group_tables(qam, group_stack(c, group))
                  for c in codes]
        assert not np.array_equal(tables[0][2], tables[1][2])
        for code in codes:
            H, r, rho = random_batch(code, qam, 4096, 61)
            assert np.array_equal(
                decoder.detect_from_equivalent_batch(code, qam, H, r, rho),
                uncompressed_detect(code, qam, H, r, rho))


class TestMetricMemory:
    @staticmethod
    def batch(name, constellation, n, seed):
        code = build(name)
        rng = np.random.default_rng(seed)
        h = draw_channel(rng, code.nt, 1, batch=n)
        bits = rng.integers(0, 2, (n, code.K * constellation.bits_per_symbol))
        H = equivalent_channel(code, h)
        noise = rng.standard_normal((n, 2 * code.T)) * np.sqrt(0.5)
        r = transmit(code, H, constellation.modulate(bits), 4.0, noise)
        return code, H, r

    @pytest.mark.parametrize("frames_per_block", [1, 1000, 4096])
    def test_split_frames_decide_like_one_block(self, monkeypatch,
                                                frames_per_block):
        # 1 frame per block is raised to the floor; 4096 is one block of
        # all frames; each against the unsplit uncompressed reference
        code, H, r = self.batch("T8_CR", QAM4, 4096, 41)
        monkeypatch.setattr(decoder, "METRIC_BLOCK_BYTES",
                            frames_per_block * 256 * 8)
        assert decoder.metric_block_frames(256) == max(
            decoder.METRIC_BLOCK_MIN_FRAMES, frames_per_block)
        split = decoder.detect_from_equivalent_batch(code, QAM4, H, r, 4.0)
        assert np.array_equal(split,
                              uncompressed_detect(code, QAM4, H, r, 4.0))

    @pytest.mark.parametrize("count, frames", [
        (4, 16384), (256, 256), (4096, 16), (65536, 16),
    ])
    def test_block_rule_depends_on_candidate_count(self, count, frames):
        assert decoder.metric_block_frames(count) == frames

    def test_peak_memory_is_bounded(self):
        qam = make_qam(16)
        code, H, r = self.batch("T8_CR", qam, 512, 43)
        tracemalloc.start()
        try:
            decoder.detect_from_equivalent_batch(code, qam, H, r, 4.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 160 * 2 ** 20

    def test_cached_tables_are_read_only(self):
        qam = make_qam(16)
        code = build("Q4_CR")
        rows = group_stack(code, code.grouping[0])
        cands, reps, features = decoder.group_tables(qam, rows)
        assert decoder.group_tables(qam, rows.copy())[2] is features
        assert np.array_equal(cands, decoder.group_candidates(qam, 4))
        assert features.shape == (2 + 4, 256)
        assert decoder.group_tables(
            qam, group_stack(code, code.grouping[1]))[2] is features
        for table in (cands, reps, features):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1

    def test_table_build_is_lean_and_unchanged(self):
        # T8_CR at 16-QAM: 65 536 candidates of 8 rails, 11 MiB of tables
        levels = tuple(np.sort(make_qam(16).pam_levels))
        code = build("T8_CR")
        reps, merge = decoder.gram_classes(group_stack(code, code.grouping[0]))
        tracemalloc.start()
        try:
            cands, features = decoder._class_tables.__wrapped__(
                levels, 8, merge.tobytes())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2 ** 20
        want = np.array(list(itertools.product(levels, repeat=8)))
        rows, cols = np.triu_indices(8)
        pairs = want[:, rows] * want[:, cols]
        pairs[:, rows != cols] *= 2.0
        assert np.array_equal(cands, want)
        assert np.array_equal(features[len(reps):], want.T)
        assert np.allclose(features[:len(reps)], merge @ pairs.T,
                           rtol=0, atol=1e-14)

    def test_features_score_the_grouped_metric(self):
        # weights @ features == factor * s^T G s - 2 z^T s for every
        # candidate of every group of every catalog code, nr = 1 and 2
        rng = np.random.default_rng(47)
        for name in CODE_NAMES:
            code = build(name)
            for nr in (1, 2):
                for qam in (QAM4, make_qam(16)):
                    h = draw_channel(rng, code.nt, nr)
                    r = rng.standard_normal(2 * code.T * nr)
                    H = equivalent_channel(code, h)
                    gram, z = H.T @ H, H.T @ r
                    factor = np.sqrt(1.0 / code.nt)
                    for group in code.grouping:
                        if qam.levels_per_rail ** len(group) > 4096:
                            continue
                        idx = np.array(group) - 1
                        cands, got = group_metric(code, qam, group, H, r, 1.0)
                        want = (factor * np.einsum(
                            "ci,ij,cj->c", cands, gram[np.ix_(idx, idx)],
                            cands) - 2.0 * cands @ z[idx])
                        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("name, order, admitted", [
        ("T8_CR", 16, True), ("Q4_CR", 256, True), ("T8_LT", 256, True),
        ("T8_CR", 64, False), ("T8_CR", 256, False),
    ])
    def test_candidate_cap(self, name, order, admitted):
        code, qam = build(name), make_qam(order)
        if admitted:
            decoder.check_candidate_budget(code, qam)
            return
        with pytest.raises(decoder.CandidateBudgetError, match="cap"):
            decoder.check_candidate_budget(code, qam)
        H = np.zeros((1, 2 * code.T, 2 * code.K))
        with pytest.raises(decoder.CandidateBudgetError):
            decoder.detect_from_equivalent_batch(code, qam, H,
                                                 np.zeros((1, 2 * code.T)),
                                                 1.0)


class TestTieBreak:
    """Both detectors break exact metric ties toward the lexicographically
    smallest candidate."""

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_zero_channel_ties_every_candidate(self, name):
        code = build(name)
        h = np.zeros((code.nt, 1), dtype=complex)
        r = np.zeros(2 * code.T)
        g = grouped_detect(code, QAM4, h, r, 1.0)
        e = decoder.exhaustive_ml_detect(code, QAM4, h, r, 1.0)
        assert np.all(g == np.min(QAM4.pam_levels))
        assert np.array_equal(g, e)

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_zero_received_ties_s_and_minus_s(self, name):
        # with r = 0 every metric is even in s: each group's minimiser ties
        # exactly with its negation in the grouped metric, and the whole
        # codeword with its negation in the exhaustive residual; both must
        # keep the smaller of the pair (first rail negative)
        code = build(name)
        rng = np.random.default_rng([67, len(name), code.K])
        h = draw_channel(rng, code.nt, 1)
        r = np.zeros(2 * code.T)
        H = equivalent_channel(code, h)
        g = grouped_detect(code, QAM4, h, r, 1.0)
        for group in code.grouping:
            idx = np.array(group) - 1
            cands, metric = group_metric(code, QAM4, group, H, r, 1.0)
            pick = np.flatnonzero(metric == metric.min())[0]
            mirror = np.flatnonzero((cands == -cands[pick]).all(axis=1))[0]
            assert np.array_equal(g[idx], cands[pick])
            assert metric[mirror] == metric[pick]
            assert g[idx][0] < 0
        e = decoder.exhaustive_ml_detect(code, QAM4, h, r, 1.0)
        cands = decoder.group_candidates(QAM4, 2 * code.K)
        resid = r - np.sqrt(1.0 / code.nt) * cands @ H.T
        vals = np.einsum("ct,ct->c", resid, resid)
        ties = cands[vals == vals.min()]
        assert np.array_equal(ties[0], e)
        assert any(np.array_equal(t, -e) for t in ties)
        # The exhaustive residual settles the other exact-arithmetic ties
        # (sign choices of whole groups, and of uncoupled rails at 4-QAM)
        # by the rounding of terms the grouped metric never forms, so its
        # decision need not be the grouped one; it must still minimise
        # every group's metric up to rounding.
        for group in code.grouping:
            idx = np.array(group) - 1
            cands, metric = group_metric(code, QAM4, group, H, r, 1.0)
            k = np.flatnonzero((cands == e[idx]).all(axis=1))[0]
            assert metric[k] - metric.min() <= 1e-12


class TestClosedFormMetrics:
    def test_mixed_code_metrics_match_generic_decoder(self):
        code = build("Q4_LT")
        rng = np.random.default_rng(71)
        rho = float(code.nt)  # metric form assumes unit transmit scaling
        for _ in range(1000):
            h, s, r = random_transmission(code, QAM4, rng, rho)
            generic = grouped_detect(code, QAM4, h, r, rho)
            literal = closed_form.q4lt_detect(QAM4, h, unstack_received(r, 4))
            assert np.array_equal(generic, literal)

    def test_rotated_code_metrics_match_generic_decoder(self):
        code = build("Q4_CR")
        rng = np.random.default_rng(73)
        rho = float(code.nt)
        for _ in range(1000):
            h, s, r = random_transmission(code, QAM4, rng, rho)
            generic = grouped_detect(code, QAM4, h, r, rho)
            literal = closed_form.q4cr_detect(QAM4, h, unstack_received(r, 4))
            assert np.array_equal(generic, literal)

    def test_zero_candidate_has_zero_candidate_terms(self):
        rng = np.random.default_rng(79)
        h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        r = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        assert closed_form.metric_q4lt(1, (0.0, 0.0), h, r) == 0.0

    def test_unknown_group_index(self):
        with pytest.raises(ValueError, match="group index"):
            closed_form.metric_q4lt(5, (0.0, 0.0), np.zeros((4, 1), complex),
                                np.zeros((4, 1), complex))

    def test_metric_decomposes_exact_ml(self):
        # the four group metrics sum to ||r - C h||^2 - ||r||^2
        from qostbc.catalog import encode

        code = build("Q4_LT")
        rng = np.random.default_rng(83)
        for _ in range(100):
            h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
            bits = rng.integers(0, 2, 8)
            s = QAM4.modulate(bits)
            noise = 0.3 * (rng.standard_normal((4, 1))
                           + 1j * rng.standard_normal((4, 1)))
            r = encode(code, s) @ h + noise
            groups = ((1, 4), (2, 3), (5, 8), (6, 7))
            total = sum(
                closed_form.metric_q4lt(gi, (s[g[0] - 1], s[g[1] - 1]), h, r)
                for gi, g in enumerate(groups, start=1)
            )
            exact = np.linalg.norm(r - encode(code, s) @ h) ** 2 \
                - np.linalg.norm(r) ** 2
            assert total == pytest.approx(float(exact), rel=1e-9, abs=1e-9)


class TestOrthogonalBenchmarkDecoding:
    def test_matches_per_symbol_slicing(self):
        # with single-symbol groups the grouped detector reduces to
        # matched-filter slicing rail by rail
        code = build("G4C")
        rng = np.random.default_rng(89)
        rho = 5.0
        for _ in range(200):
            h, s, r = random_transmission(code, QAM4, rng, rho)
            out = grouped_detect(code, QAM4, h, r, rho)
            H = equivalent_channel(code, h)
            z = H.T @ r
            gram = np.diag(H.T @ H)
            estimate = z / (np.sqrt(rho / code.nt) * gram)
            sliced = QAM4.pam_levels[
                np.argmin(np.abs(estimate[:, None] - QAM4.pam_levels), axis=1)
            ]
            assert np.array_equal(out, sliced)
