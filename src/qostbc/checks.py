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

#: shallowest final-decade slope (log10 BER per dB) the orthogonal benchmark
#: may have for the slopes to be compared; two flat curves agree trivially
SHALLOWEST_BENCH_SLOPE = -0.3


def power_traces():
    """Every dispersion matrix meets the T*Nt/K power target."""
    worst = 0.0
    for name in catalog.CODE_NAMES:
        code = catalog.build(name)
        traces, _ = catalog.validate_power(code)
        worst = max(worst, float(np.abs(traces - code.power_target).max()))
    return "power traces", worst <= 1e-12, f"max deviation {worst:.2e}"


def groupings():
    """Every code's symbol groups are the pinned ones."""
    bad = [name for name, (_, want) in GROUPINGS.items()
           if catalog.build(name).grouping != want]
    return "grouping regressions", not bad, f"mismatches: {bad or 'none'}"


def joint_detection_sizes():
    """Every code's largest group has the pinned size."""
    bad = [name for name, (size, _) in GROUPINGS.items()
           if analysis.joint_detection_size(catalog.build(name)) != size]
    return "joint-detection sizes", not bad, f"mismatches: {bad or 'none'}"


def gram_block_diagonality(seed: int, draws: int):
    """The matched-filter Gram H^T H has no off-group entry, for ``draws``
    channels per code and receive-antenna count (1 and 2); the worst ratio
    of an off-group entry to the largest entry is reported."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    worst = 0.0
    for name in catalog.CODE_NAMES:
        code = catalog.build(name)
        label = np.empty(2 * code.K, dtype=np.intp)
        for gi, group in enumerate(code.grouping):
            label[np.array(group) - 1] = gi
        off = label[:, None] != label[None, :]
        for nr in (1, 2):
            for _ in range(draws):
                H = analysis.equivalent_channel(
                    code, simulate.draw_channel(rng, code.nt, nr, 1))[0]
                gram = np.abs(H.T @ H)
                worst = max(worst, gram[off].max(initial=0.0) / gram.max())
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
            spec = transforms.GcltSpec(code.grouping, mats)
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


def exhaustive_draws(code, constellation, trials: int, seed: int, nr: int):
    """(channels, bits, noise) of :func:`grouped_vs_exhaustive`'s trials
    for ``code``, drawn from ``SeedSequence([seed, i])`` with ``i`` the
    code's index in :data:`catalog.CODE_NAMES`, so each code gets its own
    draws: each trial draws its channel, bits and noise in turn."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, catalog.CODE_NAMES.index(code.name)]))
    draws = [(simulate.draw_channel(rng, code.nt, nr, 1),
              rng.integers(0, 2, (1, code.K * constellation.bits_per_symbol)),
              rng.standard_normal((1, 2 * code.T * nr)) * math.sqrt(0.5))
             for _ in range(trials)]
    return tuple(np.concatenate(parts) for parts in zip(*draws))


def grouped_vs_exhaustive(codes, trials: int, seed: int, rho: float):
    """Grouped ML decides like exhaustive ML on ``trials`` noisy 4-QAM
    blocks per code (:func:`exhaustive_draws`, one receive antenna), sent
    and detected as one batch, on both grouped routes: the simulator's,
    from the channel covariance, and
    :func:`decoder.detect_from_equivalent_batch`'s, from H and r."""
    qam = modem.make_qam(4)
    hits = 0
    for name in codes:
        code = catalog.build(name)
        h, bits, noise = exhaustive_draws(code, qam, trials, seed, 1)
        s = qam.modulate(bits)
        H = analysis.equivalent_channel(code, h)
        r = simulate.transmit(code, H, s, rho, noise)
        e = decoder.exhaustive_ml_detect(code, qam, H, r, rho)
        agree = ((decoder.detect_from_equivalent_batch(code, qam, H, r, rho)
                  == e)
                 & (simulate._detect(code, qam, h, noise, s, rho) == e))
        hits += int(agree.all(axis=1).sum())
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


def _lacking(name: str, values: dict, what: str):
    """The failed check ``name`` when a curve of ``values`` (curve name ->
    value) has no ``what`` (its value is None), else None."""
    missing = [curve for curve, value in values.items() if value is None]
    return (name, False, f"no {what} for {', '.join(missing)}") if missing \
        else None


def _gap(name: str, curves: dict, mixed: str, rotated: str, ok, bound: str):
    """The check ``name`` that ``ok`` holds for the SNR of the ``mixed``
    curve at BER 1e-3 minus that of the ``rotated`` one."""
    at = {c: simulate.snr_at_ber(curves[c], 1e-3) for c in (mixed, rotated)}
    if None in at.values():
        return _lacking(name, at, "SNR at BER 1e-3")
    gap = at[mixed] - at[rotated]
    return name, ok(gap), f"{gap:.3f} dB ({bound})"


def ber_relationships(workers: int):
    """Yield the Monte Carlo checks: the gap between the rotated and the
    mixed variants at BER 1e-3, full-diversity slopes against the
    orthogonal benchmark's (itself at most :data:`SHALLOWEST_BENCH_SLOPE`),
    and the unmixed code's shallower slope. A check
    fails, naming the curve, when a curve it reads never reaches BER 1e-3
    or has no final-decade slope (or a zero one that it divides by)."""
    four = _curves((("Q4", 4), ("Q4_CR", 4), ("Q4_LT", 4), ("G4C", 16)),
                   tuple(float(v) for v in range(0, 26, 2)), workers)
    yield _gap("four-antenna gap at BER 1e-3", four, "Q4_LT", "Q4_CR",
               lambda gap: 0.0 <= gap <= 0.7, "<= 0.7")
    s_q4, s_lt, s_bench = (simulate.final_decade_slope(four[c])
                           for c in ("Q4", "Q4_LT", "G4C"))
    name = "full-diversity slope agreement"
    yield _lacking(name, {"Q4_LT": s_lt, "G4C": s_bench}, "slope") or (
        name, (s_bench <= SHALLOWEST_BENCH_SLOPE
               and abs(s_lt - s_bench) <= 0.25 * abs(s_bench)),
        f"{s_lt:.3f} vs {s_bench:.3f} per dB (within 25%, benchmark "
        f"<= {SHALLOWEST_BENCH_SLOPE})")
    name = "unmixed code visibly shallower"
    yield _lacking(name, {"Q4": s_q4, "Q4_LT": s_lt or None}, "slope") or (
        name, s_q4 / s_lt < 0.8, f"slope ratio {s_q4 / s_lt:.3f} (< 0.8)")
    eight = _curves((("Q8_CR", 4), ("Q8_LT", 4)),
                    tuple(float(v) for v in range(0, 14, 2)), workers)
    yield _gap("eight-antenna gap at BER 1e-3", eight, "Q8_LT", "Q8_CR",
               lambda gap: abs(gap) <= 0.7, "|.| <= 0.7")
