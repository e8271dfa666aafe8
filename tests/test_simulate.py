"""Monte Carlo engine tests: channel statistics, SNR calibration,
determinism, and the curve-analysis helpers."""

import math

import numpy as np
import pytest

from qostbc import decoder, simulate
from qostbc.analysis import equivalent_channel
from qostbc.catalog import build
from qostbc.modem import make_qam


class TestChannelDraws:
    def test_mean_power(self):
        rng = np.random.default_rng(1)
        h = simulate.draw_channel(rng, 4, 25000)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_component_variances(self):
        rng = np.random.default_rng(2)
        h = simulate.draw_channel(rng, 4, 25000)
        assert np.var(h.real) == pytest.approx(0.5, abs=0.02)
        assert np.var(h.imag) == pytest.approx(0.5, abs=0.02)

    def test_seeded_reproducibility(self):
        a = simulate.draw_channel(np.random.default_rng(7), 8, 2)
        b = simulate.draw_channel(np.random.default_rng(7), 8, 2)
        assert np.array_equal(a, b)

    def test_batch_of_independent_draws(self):
        h = simulate.draw_channel(np.random.default_rng(8), 4, 2, batch=6000)
        assert h.shape == (6000, 4, 2)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)
        corr = np.mean(h[:, 0, 0] * np.conj(h[:, 1, 1]))
        assert abs(corr) < 0.05


def send(code, s, h, rho, noise):
    """Transmit one codeword as a batch of one."""
    H = equivalent_channel(code, h)
    return simulate.transmit(code, H[None], s[None], rho, noise[None])[0]


class TestTransmit:
    def test_noiseless_is_scaled_equivalent_channel(self):
        code = build("Q4")
        qam = make_qam(4)
        rng = np.random.default_rng(3)
        h = simulate.draw_channel(rng, 4, 1)
        s = qam.modulate(rng.integers(0, 2, 8))
        rho = 7.0
        r = send(code, s, h, rho, np.zeros(2 * code.T))
        H = equivalent_channel(code, h)
        assert np.allclose(r, np.sqrt(rho / 4) * (H @ s), atol=1e-14)

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
            h = simulate.draw_channel(rng, code.nt, 1)
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
