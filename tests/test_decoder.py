"""Detector tests: grouped vs exhaustive ML agreement and the closed-form
metric cross-checks."""

import itertools
import tracemalloc

import numpy as np
import pytest

from qostbc import decoder
from qostbc.analysis import equivalent_channel, unstack_received
from qostbc.catalog import build
from qostbc.modem import make_qam
from qostbc.simulate import draw_channel, transmit

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

    @pytest.mark.parametrize("frames_per_block", [1, 1000])
    def test_split_frames_decide_like_one_block(self, monkeypatch,
                                                frames_per_block):
        code, H, r = self.batch("T8_CR", QAM4, 4096, 41)
        whole = decoder.detect_from_equivalent_batch(code, QAM4, H, r, 4.0)
        monkeypatch.setattr(decoder, "METRIC_BLOCK_BYTES",
                            frames_per_block * 256 * 8)
        split = decoder.detect_from_equivalent_batch(code, QAM4, H, r, 4.0)
        assert np.array_equal(split, whole)

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
        cands, features = decoder.candidate_tables(qam, 4)
        assert decoder.candidate_tables(qam, 4)[1] is features
        assert np.array_equal(cands, decoder.group_candidates(qam, 4))
        assert features.shape == (4 * 5 // 2 + 4, 256)
        for table in (cands, features):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_table_build_is_lean_and_unchanged(self):
        # T8_CR at 16-QAM: 65 536 candidates of 8 rails, 26 MiB of tables
        levels = tuple(np.sort(make_qam(16).pam_levels))
        tracemalloc.start()
        try:
            cands, features = decoder._candidate_tables.__wrapped__(levels, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2 ** 20
        want = np.array(list(itertools.product(levels, repeat=8)))
        rows, cols = np.triu_indices(8)
        pairs = want[:, rows] * want[:, cols]
        pairs[:, rows != cols] *= 2.0
        assert np.array_equal(cands, want)
        assert np.array_equal(features,
                              np.concatenate([pairs, want], axis=1).T)

    def test_features_score_the_grouped_metric(self):
        # weights @ features == factor * s^T G s - 2 z^T s for every candidate
        rng = np.random.default_rng(47)
        a = rng.standard_normal((6, 3))
        gram, z, factor = a.T @ a, rng.standard_normal(3), 0.7
        cands, features = decoder.candidate_tables(QAM4, 3)
        rows, cols = np.triu_indices(3)
        weights = np.concatenate([factor * gram[rows, cols], -2.0 * z])
        want = [factor * c @ gram @ c - 2.0 * z @ c for c in cands]
        assert np.allclose(weights @ features, want, rtol=0, atol=1e-12)

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


class TestClosedFormMetrics:
    def test_mixed_code_metrics_match_generic_decoder(self):
        code = build("Q4_LT")
        rng = np.random.default_rng(71)
        rho = float(code.nt)  # metric form assumes unit transmit scaling
        for _ in range(1000):
            h, s, r = random_transmission(code, QAM4, rng, rho)
            generic = grouped_detect(code, QAM4, h, r, rho)
            literal = decoder.q4lt_detect(QAM4, h, unstack_received(r, 4))
            assert np.array_equal(generic, literal)

    def test_rotated_code_metrics_match_generic_decoder(self):
        code = build("Q4_CR")
        rng = np.random.default_rng(73)
        rho = float(code.nt)
        for _ in range(1000):
            h, s, r = random_transmission(code, QAM4, rng, rho)
            generic = grouped_detect(code, QAM4, h, r, rho)
            literal = decoder.q4cr_detect(QAM4, h, unstack_received(r, 4))
            assert np.array_equal(generic, literal)

    def test_zero_candidate_has_zero_candidate_terms(self):
        rng = np.random.default_rng(79)
        h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        r = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        assert decoder.metric_q4lt(1, (0.0, 0.0), h, r) == 0.0

    def test_unknown_group_index(self):
        with pytest.raises(ValueError, match="group index"):
            decoder.metric_q4lt(5, (0.0, 0.0), np.zeros((4, 1), complex),
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
                decoder.metric_q4lt(gi, (s[g[0] - 1], s[g[1] - 1]), h, r)
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
