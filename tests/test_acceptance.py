"""Acceptance suite: the twelve package-level criteria, one per test.

Each test prints a single ``[criterion N] ...`` summary line (visible with
``pytest -s`` or on failure). The criteria pin the headline numbers of the
code families (diversity products, optimum mixing angle, decoder oracle
agreement, BER curve relationships) at fixed tolerances and seeds.
Criteria 1, 2, 7, 8, 9, 10 and 11 run the :mod:`qostbc.checks` functions
that ``qostbc verify`` runs, at the acceptance sizes.
"""

import math
import time

import numpy as np

from qostbc import analysis, checks, cli, decoder, gain, simulate, transforms
from qostbc.catalog import OPT_THETA_2D, build
from qostbc.modem import make_qam

import closed_form

QAM4 = make_qam(4)
D4 = QAM4.d_min


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def report_checks(num, *results):
    """Report ``(name, ok, detail)`` check results as one criterion."""
    report(num, all(ok for _, ok, _ in results),
           "; ".join(f"{name}: {detail}" for name, _, detail in results))


def elapsed(t0, limit):
    """The seconds since ``t0``, as a check that they stay below ``limit``."""
    seconds = time.time() - t0
    return "time", seconds < limit, f"{seconds:.2f}s"


def test_criterion_01_four_antenna_diversity_products():
    t0 = time.time()
    zetas = checks.diversity_products(("Q4_CR", "Q4_LT"), checks.PLAIN_CODES)
    report_checks(1, zetas, elapsed(t0, 5.0))


def test_criterion_02_eight_antenna_diversity_products():
    # validates both eight-antenna base constructions
    t0 = time.time()
    zetas = checks.diversity_products(("Q8_LT", "T8_LT"), plain=())
    report_checks(2, zetas, elapsed(t0, 30.0))


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
    analytic_deg = math.degrees(OPT_THETA_2D)
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
        spec = transforms.GcltSpec.rotations_2d(base.grouping, OPT_THETA_2D)
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
    theta = OPT_THETA_2D
    rng = np.random.default_rng(np.random.SeedSequence([505]))
    worst = 0.0
    for _ in range(10000):
        deltas = rng.integers(-3, 4, size=8).astype(float) * D4
        numeric = gain.distance_det(code, deltas)
        closed = closed_form.q4lt_det_closed_form(deltas, theta)
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
    # 100 channels x 10 codes x nr in (1, 2)
    report_checks(7, checks.gram_block_diagonality(seed=707, draws=100))


def test_criterion_08_grouping_regressions():
    report_checks(8, checks.groupings(), checks.joint_detection_sizes())


def test_criterion_09_decoder_oracle_equivalence():
    t0 = time.time()
    rho = float(build("Q4").nt)  # unit transmit scaling for the closed forms
    oracle = checks.grouped_vs_exhaustive(("Q4", "Q4_CR", "Q4_LT"),
                                          trials=1000, seed=909, rho=rho)
    # closed-form metric argmins against the generic decoder, one block at a
    # time as a batch of one
    code = build("Q4_LT")
    rng = np.random.default_rng(np.random.SeedSequence([909, 42]))
    hits = 0
    for _ in range(1000):
        h = simulate.draw_channel(rng, 4, 1)
        s = QAM4.modulate(rng.integers(0, 2, 8))
        H = analysis.equivalent_channel(code, h)[None]
        noise = rng.standard_normal((1, H.shape[1])) * math.sqrt(0.5)
        r = simulate.transmit(code, H, s[None], rho, noise)
        g = decoder.detect_from_equivalent_batch(code, QAM4, H, r, rho)[0]
        received = closed_form.unstack_received(r[0], 4)
        lit = closed_form.q4lt_detect(QAM4, h, received)
        hits += int(np.array_equal(g, lit))
    report_checks(9, oracle, ("closed-form metric", hits == 1000,
                              f"{hits}/1000"), elapsed(t0, 60.0))


def test_criterion_10_ber_reproduction():
    report_checks(10, *checks.ber_relationships(workers=2))


def test_criterion_11_group_mixing_property():
    # 100 random mixings x (Q4, Q8, T8)
    report_checks(11, checks.group_mixing(seed=1111, draws=100))


def _cli_bytes(capsys, argv):
    status = cli.main(argv)
    out = capsys.readouterr().out
    assert status == 0, argv
    return out


def test_criterion_12_cli_determinism(capsys):
    theta = repr(math.degrees(OPT_THETA_2D))
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
