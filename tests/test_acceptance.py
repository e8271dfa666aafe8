"""Acceptance suite: the twelve package-level criteria, one per test.

Each test prints a single ``[criterion N] ...`` summary line (visible with
``pytest -s`` or on failure). The criteria pin the headline numbers of the
code families (diversity products, optimum mixing angle, decoder oracle
agreement, BER curve relationships) at fixed tolerances and seeds.
"""

import math
import time

import numpy as np
import pytest

from qostbc import analysis, cli, decoder, gain, simulate, transforms
from qostbc.catalog import CODE_NAMES, build, validate_power
from qostbc.modem import make_qam

import closed_form

QAM4 = make_qam(4)
D4 = QAM4.d_min


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_four_antenna_diversity_products():
    t0 = time.time()
    zeta_cr = gain.diversity_product(build("Q4_CR"), QAM4).zeta
    zeta_lt = gain.diversity_product(build("Q4_LT"), QAM4).zeta
    plain = {n: gain.diversity_product(build(n), QAM4)
             for n in ("Q4", "Q8", "T8")}
    elapsed = time.time() - t0
    ok = (abs(zeta_cr - 0.3536) <= 1e-3
          and abs(zeta_lt - 0.3344) <= 1e-3
          and all(not r.full_diversity and r.min_det < 1e-9
                  for r in plain.values())
          and elapsed < 5.0)
    report(1, ok, f"zeta_cr={zeta_cr:.6f} zeta_lt={zeta_lt:.6f} "
                  f"plain codes non-full-diversity, {elapsed:.2f}s")


def test_criterion_02_eight_antenna_diversity_products():
    t0 = time.time()
    zeta_q8 = gain.diversity_product(build("Q8_LT"), QAM4).zeta
    zeta_t8 = gain.diversity_product(build("T8_LT"), QAM4).zeta
    elapsed = time.time() - t0
    ok = (abs(zeta_q8 - 0.2730) <= 1e-3
          and abs(zeta_t8 - 0.1531) <= 1e-3
          and elapsed < 30.0)
    report(2, ok, f"zeta_q8lt={zeta_q8:.6f} zeta_t8lt={zeta_t8:.6f} "
                  f"{elapsed:.2f}s (validates both base constructions)")


def test_criterion_03_cr_angle_searches():
    q8 = gain.search_q8_cr_angle()
    t8 = gain.search_t8_cr_steps()
    q8_deg = math.degrees(q8.angles[0])
    t8_deg = [round(math.degrees(a), 3) for a in t8.angles]
    ok = q8.zeta >= 0.286 and t8.zeta >= 0.216
    report(3, ok, f"q8_cr zeta={q8.zeta:.6f} at {q8_deg:.2f} deg; "
                  f"t8_cr zeta={t8.zeta:.6f} at {t8_deg} deg")


def test_criterion_04_optimal_mixing_angle():
    t0 = time.time()
    analytic_deg = math.degrees(gain.optimal_theta_2d())
    ok = True
    details = []
    for order in (4, 16):
        qam = make_qam(order)
        sweep = gain.theta_grid_search(qam, step_deg=0.01)
        ok = ok and abs(sweep.best_theta_deg - 13.2825) <= 0.05
        # minimum determinant at the analytic angle
        idx = int(np.argmin(np.abs(sweep.thetas_deg - analytic_deg)))
        target = 0.64 * qam.d_min ** 8
        base = build("Q4")
        spec = transforms.GcltSpec.rotations_2d(
            base.grouping, gain.optimal_theta_2d()
        )
        at_opt = gain.min_det_search(
            transforms.apply_gclt(base, spec), qam
        ).min_det
        ok = ok and abs(at_opt - target) <= 1e-6 * target
        details.append(f"{order}qam argmax={sweep.best_theta_deg:.2f}deg "
                       f"mindet@opt={at_opt:.6g}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    report(4, ok, "; ".join(details) + f"; {elapsed:.2f}s")


def test_criterion_05_closed_form_equals_numeric():
    code = build("Q4_LT")
    theta = gain.optimal_theta_2d()
    rng = np.random.default_rng(np.random.SeedSequence([505]))
    worst = 0.0
    for _ in range(10000):
        deltas = rng.integers(-3, 4, size=8).astype(float) * D4
        numeric = gain.distance_det(code, deltas)
        closed = gain.q4lt_det_closed_form(deltas, theta)
        denom = max(abs(closed), 1e-12)
        worst = max(worst, abs(numeric - closed) / denom)
    report(5, worst <= 1e-9, f"max relative error {worst:.2e} over 1e4 patterns")


def test_criterion_06_within_group_assumption():
    ok = True
    details = []
    for name in ("Q4", "Q4_CR", "Q4_LT"):
        code = build(name)
        within = gain.min_det_search(code, QAM4, scope="within_group")
        full = gain.min_det_search(code, QAM4, scope="full")
        ok = ok and within.min_det == full.min_det
        details.append(f"{name}: {within.min_det:.6g}")
    report(6, ok, "full == within-group exactly; " + "; ".join(details))


def test_criterion_07_gram_block_diagonality():
    rng = np.random.default_rng(np.random.SeedSequence([707]))
    worst = 0.0
    for name in CODE_NAMES:
        code = build(name)
        for nr in (1, 2):
            for _ in range(100):
                h = simulate.draw_channel(rng, code.nt, nr)
                rep = analysis.gram_block_report(code, h)
                worst = max(worst, rep.max_off_group / rep.max_entry)
    report(7, worst < 1e-10, f"max off-group/max-entry ratio {worst:.2e} "
                             "over 100 channels x 10 codes x nr in (1,2)")


def test_criterion_08_grouping_regressions():
    expected = {
        "Q4": ((1, 4), (2, 3), (5, 8), (6, 7)),
        "Q4_CR": ((1, 4, 5, 8), (2, 3, 6, 7)),
    }
    ok = all(analysis.discover_grouping(build(n)) == want
             for n, want in expected.items())
    ok = ok and (analysis.discover_grouping(build("Q4_LT"))
                 == analysis.discover_grouping(build("Q4")))
    sizes = {"Q4": 2, "Q4_CR": 4, "Q4_LT": 2, "Q8": 2, "Q8_CR": 4,
             "Q8_LT": 2, "T8": 4, "T8_CR": 8, "T8_LT": 4}
    mismatches = [n for n, want in sizes.items()
                  if analysis.joint_detection_size(build(n)) != want]
    ok = ok and not mismatches
    report(8, ok, f"partitions and joint-detection sizes match "
                  f"(mismatches: {mismatches or 'none'})")


def send(code, s, h, rho, rng):
    """Transmit one codeword as a batch of one, noise drawn from ``rng``."""
    H = analysis.equivalent_channel(code, h)[None]
    noise = rng.standard_normal((1, H.shape[1])) * math.sqrt(0.5)
    return simulate.transmit(code, H, s[None], rho, noise)[0]


def grouped_detect(code, h, r, rho):
    """Grouped detection of one block as a batch of one."""
    H = analysis.equivalent_channel(code, h)[None]
    return decoder.detect_from_equivalent_batch(code, QAM4, H, r[None], rho)[0]


def test_criterion_09_decoder_oracle_equivalence():
    t0 = time.time()
    rho = float(build("Q4").nt)  # unit transmit scaling for the closed forms
    agree = {}
    for name in ("Q4", "Q4_CR", "Q4_LT"):
        code = build(name)
        rng = np.random.default_rng(np.random.SeedSequence([909, code.K]))
        hits = 0
        for _ in range(1000):
            h = simulate.draw_channel(rng, code.nt, 1)
            bits = rng.integers(0, 2, code.K * QAM4.bits_per_symbol)
            s = QAM4.modulate(bits)
            r = send(code, s, h, rho, rng)
            g = grouped_detect(code, h, r, rho)
            e = decoder.exhaustive_ml_detect(code, QAM4, h, r, rho)
            hits += int(np.array_equal(g, e))
        agree[name] = hits
    # closed-form metric argmins against the generic decoder
    code = build("Q4_LT")
    rng = np.random.default_rng(np.random.SeedSequence([909, 42]))
    metric_hits = 0
    for _ in range(1000):
        h = simulate.draw_channel(rng, 4, 1)
        bits = rng.integers(0, 2, 8)
        s = QAM4.modulate(bits)
        r = send(code, s, h, rho, rng)
        g = grouped_detect(code, h, r, rho)
        lit = closed_form.q4lt_detect(QAM4, h, analysis.unstack_received(r, 4))
        metric_hits += int(np.array_equal(g, lit))
    elapsed = time.time() - t0
    ok = (all(v == 1000 for v in agree.values()) and metric_hits == 1000
          and elapsed < 60.0)
    report(9, ok, f"grouped==exhaustive {agree}, closed-form metric "
                  f"{metric_hits}/1000, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def figure4_curves():
    grid = tuple(float(v) for v in range(0, 26, 2))
    curves = {}
    for name, order in (("Q4", 4), ("Q4_CR", 4), ("Q4_LT", 4), ("G4C", 16)):
        cfg = simulate.SimConfig(
            code=name, modulation=order, nr=1, snr_db=grid,
            min_bit_errors=200, max_channel_uses=2_000_000,
            seed=7, workers=2,
        )
        curves[name] = simulate.run_ber(cfg)
    return curves


def test_criterion_10_ber_reproduction(figure4_curves):
    curves = figure4_curves
    # (a) horizontal gap between the two full-diversity variants at 1e-3
    snr_lt = simulate.snr_at_ber(curves["Q4_LT"], 1e-3)
    snr_cr = simulate.snr_at_ber(curves["Q4_CR"], 1e-3)
    gap = snr_lt - snr_cr
    ok_a = 0.0 <= gap <= 0.7

    # (b) full-diversity slope agreement with the orthogonal benchmark
    slope_lt = simulate.final_decade_slope(curves["Q4_LT"])
    slope_bench = simulate.final_decade_slope(curves["G4C"])
    ok_b = (slope_lt is not None and slope_bench is not None
            and abs(slope_lt - slope_bench) <= 0.25 * abs(slope_bench))

    # (c) the unmixed code is visibly shallower
    slope_q4 = simulate.final_decade_slope(curves["Q4"])
    ok_c = slope_q4 is not None and slope_q4 / slope_lt < 0.8

    # eight-antenna analog: gap at 1e-3 under the same budgets
    grid8 = tuple(float(v) for v in range(0, 14, 2))
    eight = {}
    for name in ("Q8_CR", "Q8_LT"):
        cfg = simulate.SimConfig(
            code=name, modulation=4, nr=1, snr_db=grid8,
            min_bit_errors=200, max_channel_uses=2_000_000,
            seed=7, workers=2,
        )
        eight[name] = simulate.run_ber(cfg)
    gap8 = (simulate.snr_at_ber(eight["Q8_LT"], 1e-3)
            - simulate.snr_at_ber(eight["Q8_CR"], 1e-3))
    ok_d = abs(gap8) <= 0.7

    ok = ok_a and ok_b and ok_c and ok_d
    report(10, ok,
           f"(a) gap={gap:.3f} dB; (b) slopes {slope_lt:.3f} vs "
           f"{slope_bench:.3f}; (c) ratio={slope_q4 / slope_lt:.3f}; "
           f"eight-antenna gap={gap8:.3f} dB")


def test_criterion_11_group_mixing_property():
    rng = np.random.default_rng(np.random.SeedSequence([1111]))
    ok = True
    for name in ("Q4", "Q8", "T8"):
        code = build(name)
        for _ in range(100):
            mats = []
            for group in code.grouping:
                if len(group) == 2:
                    mats.append(transforms.rotation_2d(rng.uniform(0, np.pi)))
                else:
                    mats.append(transforms.givens_4d(
                        list(rng.uniform(-np.pi / 2, np.pi / 2, 6))
                    ))
            spec = transforms.GcltSpec.from_matrices(code.grouping, mats)
            mixed = transforms.apply_gclt(code, spec)
            ok = ok and mixed.grouping == code.grouping
            traces, _ = validate_power(mixed)
            ok = ok and np.abs(traces - code.power_target).max() <= 1e-12
    report(11, ok, "grouping partition and power constraint preserved over "
                   "100 random mixings x (Q4, Q8, T8)")


def _cli_bytes(capsys, argv):
    status = cli.main(argv)
    out = capsys.readouterr().out
    assert status == 0, argv
    return out


def test_criterion_12_cli_determinism(capsys):
    theta = repr(math.degrees(gain.optimal_theta_2d()))
    fixed = [
        ["catalog", "--code", "Q8"],
        ["analyze", "--code", "Q4_CR"],
        ["transform", "--code", "Q4", "--gclt-theta", theta],
        ["mindet", "--code", "Q4_LT", "--mod", "4qam"],
        ["divprod", "--code", "T8_LT", "--mod", "4qam"],
        ["sweep-theta", "--mod", "4qam", "--step", "1.0"],
        ["verify"],
    ]
    ok = all(_cli_bytes(capsys, argv) == _cli_bytes(capsys, argv)
             for argv in fixed)

    sim = ["simulate", "--code", "Q4_LT", "--mod", "4qam", "--snr", "0:4:8",
           "--seed", "7", "--min-errors", "100", "--max-uses", "8192"]
    runs = [_cli_bytes(capsys, sim + ["--workers", w]) for w in ("1", "1",
                                                                 "3")]
    ok = ok and runs[0] == runs[1] == runs[2]

    search = ["search-t8", "--starts", "2", "--seed", "3"]
    s_runs = [_cli_bytes(capsys, search + ["--workers", w])
              for w in ("1", "2")]
    ok = ok and s_runs[0] == s_runs[1]
    report(12, ok, "byte-identical artifacts across repeats and worker counts")
