"""Cross-module invariant checks, shared by ``qostbc verify`` and the
acceptance suite.

Each check is a plain function of its sizes and seeds that returns
``(name, ok, detail)``; :func:`ber_relationships` yields several. ``verify``
runs them at small sizes and the acceptance criteria at their own, so each
invariant has one implementation.
"""

import math

import numpy as np

from . import analysis, catalog, decoder, gain, modem, simulate, transforms

_Q4 = ((1, 4), (2, 3), (5, 8), (6, 7))
_Q8 = ((1, 10), (2, 11), (3, 12), (4, 7), (5, 8), (6, 9))
_T8 = ((1, 4, 6, 7), (2, 3, 5, 8), (9, 12, 14, 15), (10, 11, 13, 16))

#: every code's joint-detection size (real symbols in its largest group) and
#: symbol groups (1-based rails); mixing keeps the base code's groups and
#: rotation merges them
GROUPINGS = {
    "Q4": (2, _Q4), "Q4_CR": (4, ((1, 4, 5, 8), (2, 3, 6, 7))),
    "Q4_LT": (2, _Q4), "Q8": (2, _Q8),
    "Q8_CR": (4, ((1, 4, 7, 10), (2, 5, 8, 11), (3, 6, 9, 12))),
    "Q8_LT": (2, _Q8), "T8": (4, _T8),
    "T8_CR": (8, (_T8[0] + _T8[2], _T8[1] + _T8[3])), "T8_LT": (4, _T8),
    "G4C": (1, tuple((rail,) for rail in range(1, 9))),
}

#: published 4-QAM diversity products of the full-diversity codes
ZETA_TARGETS = {"Q4_CR": 0.3536, "Q4_LT": 0.3344, "Q8_CR": 0.2887,
                "Q8_LT": 0.2730, "T8_CR": 0.2187, "T8_LT": 0.1531}

#: the unmixed, unrotated codes, which lack full diversity
PLAIN_CODES = ("Q4", "Q8", "T8")


def power_traces():
    """Every dispersion matrix meets the T*Nt/K power target."""
    worst = 0.0
    for name in catalog.CODE_NAMES:
        code = catalog.build(name)
        traces, _ = catalog.validate_power(code)
        worst = max(worst, float(np.abs(traces - code.power_target).max()))
    return "power traces", worst <= 1e-12, f"max deviation {worst:.2e}"


def groupings():
    """Every code's built and rediscovered symbol groups are the pinned
    ones."""
    bad = []
    for name, (_, want) in GROUPINGS.items():
        code = catalog.build(name)
        if not code.grouping == want == analysis.discover_grouping(code):
            bad.append(name)
    return "grouping regressions", not bad, f"mismatches: {bad or 'none'}"


def joint_detection_sizes():
    """Every code's largest group has the pinned size."""
    bad = [name for name, (size, _) in GROUPINGS.items()
           if analysis.joint_detection_size(catalog.build(name)) != size]
    return "joint-detection sizes", not bad, f"mismatches: {bad or 'none'}"


def gram_block_diagonality(seed: int, draws: int):
    """The matched-filter Gram has no off-group entry, for ``draws``
    channels per code and receive-antenna count (1 and 2)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    worst = 0.0
    for name in catalog.CODE_NAMES:
        code = catalog.build(name)
        for nr in (1, 2):
            for _ in range(draws):
                h = simulate.draw_channel(rng, code.nt, nr)
                rep = analysis.gram_block_report(code, h)
                worst = max(worst, rep.max_off_group / rep.max_entry)
    return ("gram block-diagonality", worst < 1e-10,
            f"max off-group ratio {worst:.2e}")


def group_mixing(seed: int, draws: int):
    """Random group mixings of the plain codes keep grouping and power."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    ok = True
    for name in PLAIN_CODES:
        code = catalog.build(name)
        for _ in range(draws):
            mats = [transforms.rotation_2d(rng.uniform(0, np.pi))
                    if len(group) == 2 else
                    transforms.givens_4d(list(rng.uniform(-np.pi / 2,
                                                          np.pi / 2, 6)))
                    for group in code.grouping]
            spec = transforms.GcltSpec.from_matrices(code.grouping, mats)
            mixed = transforms.apply_gclt(code, spec)
            ok = (ok and mixed.grouping == code.grouping
                  and catalog.validate_power(mixed)[1])
    return ("group mixing preserves grouping/power", ok,
            f"{len(PLAIN_CODES) * draws} random specs")


def diversity_products(targets, plain):
    """4-QAM diversity products of the ``targets`` codes lie within 1e-3 of
    :data:`ZETA_TARGETS`, and the ``plain`` codes lack full diversity, with
    a minimum determinant strictly below 1e-9."""
    qam = modem.make_qam(4)
    worst = max(abs(gain.diversity_product(catalog.build(n), qam).zeta
                    - ZETA_TARGETS[n]) for n in targets)
    reports = [gain.diversity_product(catalog.build(n), qam) for n in plain]
    ok = worst <= 1e-3 and all(not r.full_diversity and r.min_det < 1e-9
                               for r in reports)
    return "diversity products", ok, f"max |zeta error| {worst:.2e}"


def grouped_vs_exhaustive(codes, trials: int, seed: int, rho: float):
    """Grouped ML decides like exhaustive ML on ``trials`` noisy 4-QAM
    blocks per code, drawn from ``SeedSequence([seed, i])`` with ``i`` the
    code's index in :data:`catalog.CODE_NAMES`, so each code gets its own
    draws."""
    qam = modem.make_qam(4)
    hits = 0
    for name in codes:
        code = catalog.build(name)
        rng = np.random.default_rng(np.random.SeedSequence(
            [seed, catalog.CODE_NAMES.index(name)]))
        for _ in range(trials):
            h = simulate.draw_channel(rng, code.nt, 1)
            bits = rng.integers(0, 2, (1, code.K * qam.bits_per_symbol))
            H = analysis.equivalent_channel(code, h[None])
            noise = rng.standard_normal((1, H.shape[1])) * math.sqrt(0.5)
            r = simulate.transmit(code, H, qam.modulate(bits), rho, noise)
            g = decoder.detect_from_equivalent_batch(code, qam, H, r, rho)
            e = decoder.exhaustive_ml_detect(code, qam, h, r[0], rho)
            hits += bool(np.array_equal(g[0], e))
    total = trials * len(codes)
    detail = (f"{total} trials" if hits == total
              else f"{hits} of {total} trials agree")
    return "grouped vs exhaustive ML", hits == total, detail


def modem_round_trip():
    """Every constellation demaps its own points and has unit energy."""
    rng = np.random.default_rng(np.random.SeedSequence([404]))
    ok = True
    for order in modem.SUPPORTED_ORDERS:
        qam = modem.make_qam(order)
        bits = rng.integers(0, 2, (50, 4 * qam.bits_per_symbol))
        levels = qam.pam_levels
        energy = np.mean(np.abs(levels[:, None] + 1j * levels[None, :]) ** 2)
        ok = (ok and np.array_equal(qam.demap(qam.modulate(bits)), bits)
              and abs(energy - 1.0) <= 1e-12)
    return "modem round trip / unit energy", ok, "all orders"


def _curves(specs, grid, workers: int) -> dict:
    return {name: simulate.run_ber(simulate.SimConfig(
        code=name, modulation=order, nr=1, snr_db=grid, min_bit_errors=200,
        max_channel_uses=2_000_000, seed=7, workers=workers))
        for name, order in specs}


def ber_relationships(workers: int):
    """Yield the Monte Carlo checks: the gap between the rotated and the
    mixed variants at BER 1e-3, full-diversity slopes against the
    orthogonal benchmark, and the unmixed code's shallower slope."""
    four = _curves((("Q4", 4), ("Q4_CR", 4), ("Q4_LT", 4), ("G4C", 16)),
                   tuple(float(v) for v in range(0, 26, 2)), workers)
    gap = (simulate.snr_at_ber(four["Q4_LT"], 1e-3)
           - simulate.snr_at_ber(four["Q4_CR"], 1e-3))
    yield ("four-antenna gap at BER 1e-3", 0.0 <= gap <= 0.7,
           f"{gap:.3f} dB (<= 0.7)")
    s_lt = simulate.final_decade_slope(four["Q4_LT"])
    s_bench = simulate.final_decade_slope(four["G4C"])
    ok = (s_lt is not None and s_bench is not None
          and abs(s_lt - s_bench) <= 0.25 * abs(s_bench))
    yield ("full-diversity slope agreement", ok,
           f"{s_lt:.3f} vs {s_bench:.3f} per dB")
    s_q4 = simulate.final_decade_slope(four["Q4"])
    yield ("unmixed code visibly shallower",
           s_q4 is not None and s_q4 / s_lt < 0.8,
           f"slope ratio {s_q4 / s_lt:.3f} (< 0.8)")
    eight = _curves((("Q8_CR", 4), ("Q8_LT", 4)),
                    tuple(float(v) for v in range(0, 14, 2)), workers)
    gap8 = (simulate.snr_at_ber(eight["Q8_LT"], 1e-3)
            - simulate.snr_at_ber(eight["Q8_CR"], 1e-3))
    yield ("eight-antenna gap at BER 1e-3", abs(gap8) <= 0.7,
           f"{gap8:.3f} dB (|.| <= 0.7)")
