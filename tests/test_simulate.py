"""Monte Carlo engine tests: channel statistics, SNR calibration,
determinism, and the curve-analysis helpers."""

import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest

from qostbc import analysis, checks, decoder, simulate
from qostbc.analysis import equivalent_channel
from qostbc.catalog import CODE_NAMES, build
from qostbc.modem import Constellation, make_qam


class TestChannelDraws:
    def test_mean_power(self):
        rng = np.random.default_rng(1)
        h = simulate.draw_channel(rng, 4, 25000, 1)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_component_variances(self):
        rng = np.random.default_rng(2)
        h = simulate.draw_channel(rng, 4, 25000, 1)
        assert np.var(h.real) == pytest.approx(0.5, abs=0.02)
        assert np.var(h.imag) == pytest.approx(0.5, abs=0.02)

    def test_seeded_reproducibility(self):
        a = simulate.draw_channel(np.random.default_rng(7), 8, 2, 1)
        b = simulate.draw_channel(np.random.default_rng(7), 8, 2, 1)
        assert np.array_equal(a, b)

    def test_draws_a_batch_with_no_batch_parameter(self):
        # (rng, nt, nr, n) and nothing else; a batch of one draws the real
        # parts, then the imaginary parts, of one (Nt, Nr) channel
        assert list(inspect.signature(simulate.draw_channel).parameters) == [
            "rng", "nt", "nr", "n"]
        h = simulate.draw_channel(np.random.default_rng(9), 4, 2, 1)
        rng = np.random.default_rng(9)
        want = (rng.standard_normal((4, 2))
                + 1j * rng.standard_normal((4, 2))) / math.sqrt(2.0)
        assert h.shape == (1, 4, 2)
        assert np.array_equal(h[0], want)

    @pytest.mark.parametrize("nt, nr", [(8, 1), (4, 1), (8, 2)])
    @pytest.mark.parametrize("seed", [0, 7, 31])
    def test_chunk_draw_has_the_bytes_of_the_complex_expression(self, nt,
                                                                nr, seed):
        # filling .real and .imag and scaling in place gives the bytes of
        # the sum of the two draws divided by sqrt(2)
        n = simulate.CHUNK_FRAMES
        h = simulate.draw_channel(simulate._chunk_rng(seed, 1, 2), nt, nr, n)
        rng = simulate._chunk_rng(seed, 1, 2)
        want = (rng.standard_normal((n, nt, nr))
                + 1j * rng.standard_normal((n, nt, nr))) / math.sqrt(2.0)
        assert h.dtype == want.dtype
        assert h.tobytes() == want.tobytes()

    def test_batch_of_independent_draws(self):
        h = simulate.draw_channel(np.random.default_rng(8), 4, 2, 6000)
        assert h.shape == (6000, 4, 2)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)
        corr = np.mean(h[:, 0, 0] * np.conj(h[:, 1, 1]))
        assert abs(corr) < 0.05


def send(code, s, h, rho, noise):
    """Transmit one codeword through one (Nt, Nr) channel as a batch of one."""
    H = equivalent_channel(code, h[None])
    return simulate.transmit(code, H, s[None], rho, noise[None])[0]


class TestTransmit:
    def test_noiseless_is_scaled_equivalent_channel(self):
        code = build("Q4")
        qam = make_qam(4)
        rng = np.random.default_rng(3)
        h = simulate.draw_channel(rng, 4, 1, 1)[0]
        s = qam.modulate(rng.integers(0, 2, 8))
        rho = 7.0
        r = send(code, s, h, rho, np.zeros(2 * code.T))
        H = equivalent_channel(code, h[None])[0]
        assert np.allclose(r, np.sqrt(rho / 4) * (H @ s), atol=1e-14)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_a_rho_that_is_not_finite_and_positive(self, rho):
        code = build("Q4")
        H = np.ones((2, 2 * code.T, 2 * code.K))
        with pytest.raises(ValueError, match=f"rho .*{rho}"):
            simulate.transmit(code, H, np.ones((2, 2 * code.K)), rho,
                              np.zeros((2, 2 * code.T)))

    # a Q4 batch of 3 frames: noise (3, 8), symbols (3, 8); one noise vector
    # or symbol row is not broadcast to every frame
    @pytest.mark.parametrize("shape", [(8,), (1, 8), (3, 16)])
    def test_rejects_noise_that_is_not_one_row_per_frame(self, shape):
        with pytest.raises(ValueError,
                           match=re.escape(f"noise has shape {shape}")):
            simulate.transmit(build("Q4"), np.ones((3, 8, 8)),
                              np.ones((3, 8)), 1.0, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(8,), (1, 8), (3, 6)])
    def test_rejects_symbols_that_are_not_one_row_per_frame(self, shape):
        with pytest.raises(ValueError,
                           match=re.escape(f"symbols have shape {shape}")):
            simulate.transmit(build("Q4"), np.ones((3, 8, 8)),
                              np.ones(shape), 1.0, np.zeros((3, 8)))

    def test_rejects_channels_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=re.escape("(3, 8, 6)")):
            simulate.transmit(build("Q4"), np.ones((3, 8, 6)),
                              np.ones((3, 8)), 1.0, np.zeros((3, 8)))

    def test_noise_energy(self):
        code = build("Q4")
        qam = make_qam(4)
        rng = np.random.default_rng(4)
        s = qam.modulate(rng.integers(0, 2, 8))
        total = 0.0
        trials = 10000
        h = np.zeros((4, 1))  # zero channel isolates the noise
        for _ in range(trials):
            r = send(code, s, h, 1.0,
                     rng.standard_normal(2 * code.T) * np.sqrt(0.5))
            total += float(r @ r)
        # stacked noise carries T*Nr units of energy per codeword
        assert total / trials == pytest.approx(code.T * 1, rel=0.02)

    def test_snr_calibration_at_zero_db(self):
        # received signal power over noise power at rho = 1 is unity
        code = build("Q4")
        qam = make_qam(4)
        rng = np.random.default_rng(5)
        sig = noi = 0.0
        for _ in range(10000):
            h = simulate.draw_channel(rng, code.nt, 1, 1)[0]
            s = qam.modulate(rng.integers(0, 2, 8))
            clean = send(code, s, h, 1.0, np.zeros(2 * code.T))
            sig += float(clean @ clean)
            n = rng.standard_normal(2 * code.T) * np.sqrt(0.5)
            noi += float(n @ n)
        assert sig / noi == pytest.approx(1.0, rel=0.05)


class TestConfig:
    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            simulate.SimConfig(code="Q4", modulation=4, snr_db=(4.0, 2.0))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            simulate.SimConfig(code="Q4", modulation=4, snr_db=())

    @pytest.mark.parametrize("nr", [0, -1])
    def test_rejects_no_receive_antenna(self, nr):
        with pytest.raises(ValueError, match="nr"):
            simulate.SimConfig(code="Q4", modulation=4, snr_db=(0.0,), nr=nr)

    def test_rejects_more_receive_antennas_than_the_cap(self):
        # only rejected values are built: a run at the cap allocates
        for nr in (simulate.MAX_NR + 1, 100_000_000):
            with pytest.raises(ValueError, match="nr"):
                simulate.SimConfig(code="Q4", modulation=4, snr_db=(0.0,),
                                   nr=nr)
        config = simulate.SimConfig(code="Q4", modulation=4, snr_db=(0.0,),
                                    nr=simulate.MAX_NR)
        assert config.nr == simulate.MAX_NR

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError, match="positive"):
            simulate.SimConfig(code="Q4", modulation=4, snr_db=(0.0,),
                               min_bit_errors=0)

    def test_rejects_more_workers_than_the_cap(self, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("rejected input started a thread pool")

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_threads)
        for workers in (0, simulate.MAX_WORKERS + 1, 10_000):
            with pytest.raises(ValueError, match="workers"):
                simulate.SimConfig(code="Q4", modulation=4,
                                   snr_db=tuple(range(10_000)),
                                   workers=workers)
        config = simulate.SimConfig(code="Q4", modulation=4, snr_db=(0.0,),
                                    workers=simulate.MAX_WORKERS)
        assert config.workers == simulate.MAX_WORKERS

    def test_rejects_snr_beyond_the_cap(self):
        # 10^(snr/10) overflows a float above about 3083 dB
        for grid in ((4000.0,), (0.0, simulate.MAX_SNR_DB + 1), (math.nan,)):
            with pytest.raises(ValueError, match="snr points"):
                simulate.SimConfig(code="Q4", modulation=4, snr_db=grid)
        edge = (-simulate.MAX_SNR_DB, simulate.MAX_SNR_DB)
        assert simulate.SimConfig(code="Q4", modulation=4,
                                  snr_db=edge).snr_db == edge


def _small_config(**overrides):
    base = dict(code="Q4_LT", modulation=4, nr=1, snr_db=(0.0, 6.0, 12.0),
                min_bit_errors=150, max_channel_uses=30000, seed=11, workers=1)
    base.update(overrides)
    return simulate.SimConfig(**base)


class TestRunBer:
    def test_deterministic_across_runs_and_workers(self):
        a = simulate.run_ber(_small_config(workers=1))
        b = simulate.run_ber(_small_config(workers=1))
        c = simulate.run_ber(_small_config(workers=3))
        assert a.points == b.points == c.points

    def test_seed_changes_results(self):
        a = simulate.run_ber(_small_config())
        b = simulate.run_ber(_small_config(seed=12))
        assert a.points != b.points

    def test_ber_decreases_with_snr(self):
        curve = simulate.run_ber(_small_config(min_bit_errors=300,
                                               max_channel_uses=100000))
        bers = [p.ber for p in curve.points]
        assert bers == sorted(bers, reverse=True)

    def test_pure_noise_limit(self):
        cfg = simulate.SimConfig(code="Q4", modulation=4, snr_db=(-60.0,),
                                 min_bit_errors=4000, max_channel_uses=4096,
                                 seed=3)
        curve = simulate.run_ber(cfg)
        assert curve.points[0].ber == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("code, order, nr, grid, counts", [
        # detection-bound: 256 candidates per four-rail group
        ("Q4_CR", 16, 1, (6.0, 12.0),
         [(144000, 25531, 9000, 8342), (144000, 8199, 9000, 4299)]),
        # channel-bound: two receive antennas, four candidates per group
        ("T8_LT", 4, 2, (0.0, 6.0),
         [(144000, 13657, 9000, 6816), (144000, 983, 9000, 872)]),
    ])
    def test_golden_counts(self, code, order, nr, grid, counts):
        # exact counts recorded with the einsum kernels; two full chunks and
        # one partial chunk per point, so any changed decision shows here
        cfg = simulate.SimConfig(code=code, modulation=order, nr=nr,
                                 snr_db=grid, min_bit_errors=10 ** 9,
                                 max_channel_uses=9000, seed=5)
        curve = simulate.run_ber(cfg)
        assert [(p.bits, p.bit_errors, p.frames, p.frame_errors)
                for p in curve.points] == counts

    def test_candidate_cap_checked_before_any_chunk(self, monkeypatch):
        def no_chunks(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(simulate, "_simulate_chunk", no_chunks)
        cfg = simulate.SimConfig(code="T8_CR", modulation=64, snr_db=(0.0,))
        with pytest.raises(decoder.CandidateBudgetError):
            simulate.run_ber(cfg)

    def test_budget_accounting(self):
        curve = simulate.run_ber(_small_config())
        for p in curve.points:
            assert p.frames <= 30000
            assert p.bits == p.frames * 8
            assert p.bit_errors >= 150 or p.frames == 30000


def whole_chunk(code, constellation, nr, rho, rng, n):
    """The oracle: a chunk run as one block through the equivalent channel
    (one :meth:`decoder.DetectionPlan.decide` call on the whole chunk's Gram
    and matched filter), with the draws of :func:`simulate._simulate_chunk`;
    returns (decided rails, (bit_errors, frame_errors, bits))."""
    bits = rng.integers(0, 2, size=(n, code.K * constellation.bits_per_symbol))
    h = simulate.draw_channel(rng, code.nt, nr, n)
    noise = rng.standard_normal((n, 2 * code.T * nr)) * math.sqrt(0.5)
    s = constellation.modulate(bits)
    H = equivalent_channel(code, h)
    r = simulate.transmit(code, H, s, rho, noise)
    plan = decoder.detection_plan(code, constellation)
    gram = np.swapaxes(H, 1, 2) @ H
    decided = plan.decide(gram[:, plan.pairs[:, 0], plan.pairs[:, 1]],
                          (r[:, None, :] @ H)[:, 0], rho)
    per_frame = (constellation.demap(decided) != bits).sum(axis=1)
    return decided, (int(per_frame.sum()), int(np.count_nonzero(per_frame)),
                     int(bits.size))


class TestFrameBlocks:
    @staticmethod
    def blocked_chunk(monkeypatch, code, constellation, nr, rho, seed, n):
        """(decided rails, counts) of :func:`simulate._simulate_chunk`; the
        rails are read where the chunk demaps them."""
        seen = []
        demap = Constellation.demap

        def recording_demap(self, rails):
            seen.append(rails.copy())
            return demap(self, rails)

        monkeypatch.setattr(Constellation, "demap", recording_demap)
        counts = simulate._simulate_chunk(code, constellation, nr, rho,
                                          simulate._chunk_rng(seed, 0, 1), n)
        (decided,) = seen
        return decided, counts

    def assert_matches_whole_chunk(self, monkeypatch, name, order, nr, n,
                                   rho=2.5, seed=3):
        code, qam = build(name), make_qam(order)
        want, want_counts = whole_chunk(code, qam, nr, rho,
                                        simulate._chunk_rng(seed, 0, 1), n)
        got, counts = self.blocked_chunk(monkeypatch, code, qam, nr, rho,
                                         seed, n)
        assert counts == want_counts
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        return want_counts

    @pytest.mark.parametrize("nr", [1, 2])
    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_chunk_decides_like_one_block(self, monkeypatch, name, nr):
        counts = self.assert_matches_whole_chunk(monkeypatch, name, 4, nr,
                                                 simulate.CHUNK_FRAMES)
        assert counts[0] > 0  # the comparison covers wrong decisions too

    @pytest.mark.parametrize("nr", [1, 2])
    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_every_per_frame_value_keeps_its_bits(self, name, nr):
        # H, r, the Gram and the matched filter of a block of two or more
        # frames are the rows of the whole chunk's, byte for byte
        code, qam = build(name), make_qam(4)
        rng = simulate._chunk_rng(5, 0, 0)
        n = 600
        bits = rng.integers(0, 2, size=(n, code.K * qam.bits_per_symbol))
        h = simulate.draw_channel(rng, code.nt, nr, n)
        noise = rng.standard_normal((n, 2 * code.T * nr)) * math.sqrt(0.5)
        s = qam.modulate(bits)

        def stages(rows):
            H = equivalent_channel(code, h[rows])
            r = simulate.transmit(code, H, s[rows], 2.5, noise[rows])
            return H, r, np.swapaxes(H, 1, 2) @ H, (r[:, None, :] @ H)[:, 0]

        whole = stages(slice(None))
        for parts in (2, 7, n // 3, n // 2):
            for rows in split(n, parts):
                for got, want in zip(stages(rows), whole):
                    assert got.tobytes() == want[rows].tobytes()

    @pytest.mark.parametrize("name", ["T8_LT", "T8_CR"])
    def test_chunk_at_the_antenna_cap_decides_like_one_block(self, monkeypatch,
                                                             name):
        plan = decoder.detection_plan(build(name), make_qam(4))
        assert len(plan.blocks(simulate.CHUNK_FRAMES)) > 1
        self.assert_matches_whole_chunk(monkeypatch, name, 4, simulate.MAX_NR,
                                        simulate.CHUNK_FRAMES, rho=0.1)

    # T8_LT at nr = 2 and T8_CR at nr = 1 split a full chunk in blocks by
    # R and W, Q4_CR at 16-QAM by its metric; 3001 frames split in blocks of
    # two sizes
    @pytest.mark.parametrize("n", [1, 2, 3, 3001, 4095, 4096])
    @pytest.mark.parametrize("name, order, nr", [("T8_LT", 4, 2),
                                                 ("T8_CR", 4, 1),
                                                 ("Q4_CR", 16, 1)])
    def test_partial_chunks_decide_like_one_block(self, monkeypatch, name,
                                                  order, nr, n):
        self.assert_matches_whole_chunk(monkeypatch, name, order, nr, n)

    @pytest.mark.parametrize("name, order", [("T8_LT", 4), ("T8_CR", 4),
                                             ("Q4_CR", 16)])
    def test_blocked_curves_split_unevenly_at_3001_frames(self, name, order):
        plan = decoder.detection_plan(build(name), make_qam(order))
        assert len(plan.blocks(simulate.CHUNK_FRAMES)) > 1
        sizes = {b.stop - b.start for b in plan.blocks(3001)}
        assert len(sizes) == 2

    @pytest.mark.parametrize("order", [4, 16])
    @pytest.mark.parametrize("name", CODE_NAMES)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 4095, 4096])
    def test_blocks_are_balanced_bounded_and_never_one_frame(self, name,
                                                             order, n):
        # bounded by R and W, (Nt + T, Nt) complex per frame whatever the
        # receive antennas, and by the largest group's float64 metric, down
        # to the floor
        code, qam = build(name), make_qam(order)
        plan = decoder.detection_plan(code, qam)
        blocks = plan.blocks(n)
        sizes = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= min(n, 2)
        assert max(sizes) <= plan.block_frames
        candidates = qam.levels_per_rail ** max(map(len, code.grouping))
        frame_bytes = max(16 * (code.nt + code.T) * code.nt, 8 * candidates)
        assert (plan.block_frames * frame_bytes <= decoder.BLOCK_BYTES
                or plan.block_frames == decoder.BLOCK_MIN_FRAMES)

    def test_chunk_memory_stays_within_blocks(self):
        # one T8_LT chunk at 16 receive antennas: 128 MiB of equivalent
        # channels as one block, 163 MiB at its peak
        code, qam = build("T8_LT"), make_qam(4)
        tracemalloc.start()
        try:
            simulate._simulate_chunk(code, qam, 16, 2.5,
                                     simulate._chunk_rng(0, 0, 0),
                                     simulate.CHUNK_FRAMES)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20


def split(n, parts):
    """``parts`` consecutive slices covering range(n), cut as
    ``np.array_split`` cuts it (the plan's blocks are cut so too)."""
    return [slice(a[0], a[-1] + 1)
            for a in np.array_split(np.arange(n), parts)]


def received_form(code, h, noise, s, rho):
    """(H^T H, H^T r) of frames sent through the equivalent channel."""
    H = equivalent_channel(code, h)
    r = simulate.transmit(code, H, s, rho, noise)
    return np.swapaxes(H, 1, 2) @ H, (r[:, None, :] @ H)[:, 0]


def rounding_majorant(code, h):
    """B (n, 2K, 2K), B_pq = sum over t and antennas i of a_p[t, i] a_q[t, i]
    with a_p = |A_p| |h| and |x| = |Re x| + |Im x| entrywise.

    Every term either route forms for Gram entry (p, q) is bounded by it:
    the equivalent channel's rows of antenna i are bounded by a_p[:, i],
    so H^T H sums terms of at most 2 B_pq; and Re tr(P_pq R), with P_pq =
    A_p^H A_q and R = h h^H, sums terms of at most B_pq as well."""
    disp = np.abs(code.dispersion.real) + np.abs(code.dispersion.imag)
    a = np.einsum("ptk,nki->npti", disp, np.abs(h.real) + np.abs(h.imag))
    return np.einsum("npti,nqti->npq", a, a), a


def gamma(d):
    """Higham's gamma_d = d u / (1 - d u), u the unit roundoff of float64."""
    u = np.finfo(np.float64).eps / 2
    return d * u / (1 - d * u)


class TestCovarianceRoute:
    """The simulator's route (:meth:`decoder.DetectionPlan.statistics` over
    :meth:`decoder.DetectionPlan.blocks`) against the equivalent channel's."""

    @staticmethod
    def draws(code, nr, n, seed):
        rng = simulate._chunk_rng(seed, nr, n)
        h = simulate.draw_channel(rng, code.nt, nr, n)
        noise = rng.standard_normal((n, 2 * code.T * nr)) * math.sqrt(0.5)
        qam = make_qam(4)
        s = qam.modulate(rng.integers(0, 2, (n, code.K * qam.bits_per_symbol)))
        return h, noise, s

    @pytest.mark.parametrize("n", [1, 2, 4096])
    @pytest.mark.parametrize("nr", [1, 2, 16])
    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_class_values_and_filter_match_the_equivalent_channel(self, name,
                                                                  nr, n):
        """Class values equal H^T H at every member of their class (times its
        merge sign) and z equals H^T r, within a rounding bound.

        Bound: both routes evaluate sums of products with + and x only, so
        each is within gamma_d times the same sums over absolute values
        (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), d the
        most roundings on one path: at most 2T + 2Nr + 2Nt^2 + 2 on the
        plan's (P, R and the class map), 2Nt + 2T*Nr + 2 on H^T H, and 2K + 4
        more for z (the products with s, the factor and the noise term). The
        absolute sums are at most 2B (:func:`rounding_majorant`), and for z
        2 sqrt(rho/Nt) B|s| + 2 sum_t,i a_p |N|. A class member's form may
        differ from its representative's (times the sign), and a dropped or
        off-group entry's from zero, by up to the code's own
        E_pq = max |N_pq - N~_pq| / 2 entrywise over (Re, Im), so its Gram
        entry moves by at most E_pq times the sum over antennas of the
        squared 1-norm of the channel rails; that is added to both bounds.
        """
        code, rho = build(name), 2.5
        plan = decoder.detection_plan(code, make_qam(4))
        h, noise, s = self.draws(code, nr, n, 17)
        values, z = plan.statistics(h, noise, s, rho)
        assert values.shape == (n, len(plan.pairs))
        assert z.shape == (n, 2 * code.K)

        # the forms the plan implies: each class member is its sign times
        # the representative, every other entry zero
        prods = analysis.pair_products(code.dispersion)
        anti = (prods + prods.transpose(1, 0, 2, 3)) / 2
        implied = np.zeros_like(anti)
        members = []  # (column, p, q, sign)
        column = 0
        for idx, *_ in plan.groups:
            _, signs = decoder.gram_classes(prods[np.ix_(idx, idx)])
            for member in signs:
                a, b = plan.pairs[column]
                for i, j in zip(*np.nonzero(np.triu(member))):
                    p, q = idx[i], idx[j]
                    members.append((column, p, q, member[i, j]))
                    implied[p, q] = implied[q, p] = member[i, j] * anti[a, b]
                column += 1
        diff = anti - implied
        form_error = np.maximum(np.abs(diff.real),
                                np.abs(diff.imag)).max(axis=(2, 3))
        assert {(p, q) for _, p, q, _ in members} >= {
            (a, b) for a, b in plan.pairs}

        K2, T, nt = 2 * code.K, code.T, code.nt
        d = 2 * T + 2 * nr + 2 * nt * nt + 2 + 2 * nt + 2 * T * nr + 2
        factor = math.sqrt(rho / nt)
        for rows in split(n, -(-n // 256)):
            gram, want_z = received_form(code, h[rows], noise[rows], s[rows],
                                         rho)
            B, a = rounding_majorant(code, h[rows])
            rails = np.abs(h[rows].real) + np.abs(h[rows].imag)
            norm = (rails.sum(axis=1) ** 2).sum(axis=1)  # (frames,)
            shift = form_error[None] * norm[:, None, None]
            tol = 2 * gamma(d) * 2 * B + shift
            for column, p, q, sign in members:
                got = sign * values[rows, column]
                assert np.all(np.abs(got - gram[:, p, q]) <= tol[:, p, q])
            parts = noise[rows].reshape(len(gram), nr, 2, T)
            noise_abs = np.abs(parts[:, :, 0]) + np.abs(parts[:, :, 1])
            bz = (2 * factor * np.einsum("npq,nq->np", B, np.abs(s[rows]))
                  + 2 * np.einsum("npti,nit->np", a, noise_abs))
            tol_z = (2 * gamma(d + K2 + 4) * bz
                     + factor * np.einsum("npq,nq->np", shift,
                                          np.abs(s[rows])))
            assert np.all(np.abs(z[rows] - want_z) <= tol_z)

    @pytest.mark.parametrize("nr", [1, 2, 16])
    @pytest.mark.parametrize("name", ["Q4_LT", "T8_CR", "G4C"])
    def test_statistics_keep_their_bits_in_any_block(self, name, nr):
        # R, W, the class values and z of a block of two or more frames are
        # the rows of the whole batch's, byte for byte
        code = build(name)
        plan = decoder.detection_plan(code, make_qam(4))
        n = 600
        h, noise, s = self.draws(code, nr, n, 19)
        whole = plan.statistics(h, noise, s, 2.5)
        for parts in (2, 7, n // 3, n // 2):
            for rows in split(n, parts):
                got = plan.statistics(h[rows], noise[rows], s[rows], 2.5)
                for part, want in zip(got, whole):
                    assert part.tobytes() == want[rows].tobytes()

    @pytest.mark.parametrize("nr", [1, 2])
    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_simulator_route_decides_like_exhaustive_ml(self, name, nr):
        # the draws of checks.grouped_vs_exhaustive at `verify`'s seed, sent
        # at 3 dB rather than 10 dB so that some decisions are wrong
        code, qam, rho = build(name), make_qam(4), 2.0
        h, bits, noise = checks.exhaustive_draws(code, qam, 40, 303, nr)
        s = qam.modulate(bits)
        H = equivalent_channel(code, h)
        r = simulate.transmit(code, H, s, rho, noise)
        want = decoder.exhaustive_ml_detect(code, qam, H, r, rho)
        got = decoder.detection_plan(code, qam).detect(h, noise, s, rho)
        assert got.tobytes() == want.tobytes()
        assert np.any(got != s)  # wrong decisions are compared too

    # tracemalloc peaks of one 4096-frame chunk (caches warmed first) at
    # the parent of the covariance route, in MiB, rounded down
    PARENT_PEAK_MIB = {
        ("T8_CR", 4, 1): 12.02, ("Q4_CR", 16, 1): 6.97,
        ("Q4_LT", 64, 1): 7.19, ("Q8_LT", 4, 2): 9.67,
        ("T8_LT", 4, 2): 12.06, ("G4C", 16, 2): 11.26,
        ("T8_LT", 4, 16): 26.06,
    }

    @pytest.mark.parametrize("name, order, nr", list(PARENT_PEAK_MIB))
    def test_chunk_peak_stays_at_or_below_the_equivalent_channel_route(
            self, name, order, nr):
        code, qam = build(name), make_qam(order)
        simulate._simulate_chunk(code, qam, nr, 2.5,
                                 simulate._chunk_rng(0, 0, 0), 2)
        tracemalloc.start()
        try:
            simulate._simulate_chunk(code, qam, nr, 2.5,
                                     simulate._chunk_rng(0, 0, 1),
                                     simulate.CHUNK_FRAMES)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= self.PARENT_PEAK_MIB[name, order, nr] * 2 ** 20


class TestArtifacts:
    def test_csv_layout(self):
        curve = simulate.run_ber(_small_config())
        text = simulate.curve_csv([curve])
        lines = text.strip().split("\n")
        assert lines[0].startswith("# qostbc simulate")
        assert lines[1] == ",".join(simulate.CSV_COLUMNS)
        assert len(lines) == 2 + len(curve.points)
        row = lines[2].split(",")
        assert row[0] == "Q4_LT" and row[1] == "4qam"
        assert int(row[4]) == curve.points[0].bits

    def test_csv_bytes_stable(self):
        a = simulate.curve_csv([simulate.run_ber(_small_config(workers=2))])
        b = simulate.curve_csv([simulate.run_ber(_small_config(workers=1))])
        assert a == b

    def test_svg_contains_polyline_per_curve(self):
        curve = simulate.run_ber(_small_config())
        svg = simulate.curve_svg([curve, curve])
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "SNR (dB)" in svg

    @pytest.mark.parametrize("ber", [0.1, 1.0])
    def test_svg_of_a_single_ber_decade(self, ber):
        # every BER the same power of ten: the axis spans it and the next
        svg = simulate.curve_svg([synthetic_curve([(0.0, ber)])])
        decade = round(math.log10(ber))
        assert svg.count("<polyline") == 1
        assert f">1e{decade}<" in svg and f">1e{decade + 1}<" in svg


def synthetic_curve(points):
    """BerCurve from (snr, ber) pairs at a large fixed bit count."""
    bits = 10 ** 9
    cfg = simulate.SimConfig(code="Q4", modulation=4,
                             snr_db=tuple(s for s, _ in points))
    return simulate.BerCurve(
        config=cfg,
        points=tuple(
            simulate.BerPoint(snr_db=s, bits=bits,
                              bit_errors=int(round(b * bits)),
                              frames=bits // 8,
                              frame_errors=min(bits // 8, int(b * bits)))
            for s, b in points
        ),
    )


class TestCurveAnalysis:
    def test_snr_at_ber_interpolates_in_log_domain(self):
        curve = synthetic_curve([(0.0, 1e-2), (10.0, 1e-4)])
        assert simulate.snr_at_ber(curve, 1e-3) == pytest.approx(5.0)

    def test_snr_at_ber_none_when_unreached(self):
        curve = synthetic_curve([(0.0, 1e-2), (10.0, 1e-3)])
        assert simulate.snr_at_ber(curve, 1e-6) is None

    def test_final_decade_slope_on_straight_line(self):
        pts = [(s, 10.0 ** (-0.3 * s)) for s in (0.0, 2.0, 4.0, 6.0, 8.0)]
        curve = synthetic_curve(pts)
        slope = simulate.final_decade_slope(curve)
        assert slope == pytest.approx(-0.3, rel=1e-6)

    def test_final_decade_slope_skips_starved_points(self):
        curve = synthetic_curve([(0.0, 1e-2), (2.0, 1e-3)])
        starved = simulate.BerPoint(snr_db=4.0, bits=1000, bit_errors=1,
                                    frames=125, frame_errors=1)
        curve = simulate.BerCurve(config=curve.config,
                                  points=curve.points + (starved,))
        slope = simulate.final_decade_slope(curve)
        # the 1-error point is ignored; slope comes from the first two
        assert slope == pytest.approx(-0.5, rel=1e-6)
