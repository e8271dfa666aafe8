"""Closed-form per-group metrics of the four-antenna QO-STBCs.

Reference oracles for the tests: the mixed (Q4_LT) and rotated (Q4_CR)
codes' decision metrics written out from the matched-filter terms of the
code matrices, as in the paper, and the mixed code's distance determinant
(:func:`q4lt_det_closed_form`). Time slots whose row carries conjugated
symbols contribute conj(h)*r instead of h*conj(r). The tests pin the argmin
equivalence of these metrics against the generic grouped detector.
:func:`stack_received` and :func:`unstack_received` convert between complex
received samples and the detector's real layout.
"""

import math

import numpy as np

from qostbc.decoder import group_candidates
from qostbc.modem import Constellation

_A_OPT = math.cos(0.5 * math.atan(0.5))
_B_OPT = math.sin(0.5 * math.atan(0.5))

#: the two-rail groups of the four-antenna code, in closed-form pair order
_Q4_PAIRS = ((1, 4), (2, 3), (5, 8), (6, 7))


def q4lt_det_closed_form(deltas, theta: float) -> float:
    """Closed-form distance determinant of the mixed four-antenna code.

    Rotates each rail pair of _Q4_PAIRS by ``theta`` into the base-code
    coordinates and evaluates the known determinant of the base code:
    [(sum of four paired squares) * (sum of the mirrored squares)]^2.
    """
    d = np.asarray(deltas, dtype=np.float64)
    if d.shape != (8,):
        raise ValueError(f"expected 8 deltas, got shape {d.shape}")
    c, s = math.cos(theta), math.sin(theta)
    t = np.empty(8)
    for q, v in _Q4_PAIRS:
        t[q - 1] = d[q - 1] * c - d[v - 1] * s
        t[v - 1] = d[q - 1] * s + d[v - 1] * c
    s1 = ((t[0] + t[3]) ** 2 + (t[1] - t[2]) ** 2
          + (t[4] + t[7]) ** 2 + (t[5] - t[6]) ** 2)
    s2 = ((t[0] - t[3]) ** 2 + (t[1] + t[2]) ** 2
          + (t[4] - t[7]) ** 2 + (t[5] + t[6]) ** 2)
    return float((s1 * s2) ** 2)


def matched_filter_terms(h, received):
    """Per-antenna-summed matched-filter terms of the four-antenna base code.

    ``h`` is (4, Nr) complex, ``received`` (4, Nr) complex time samples.
    Returns (alpha, beta, chi, delta, gamma, phi, h2) where h2 is the total
    channel energy; alpha/beta pair with symbols x1/x4 and chi/delta with
    x2/x3, gamma/phi are the real cross couplings of those pairs.
    """
    h = np.asarray(h, dtype=np.complex128)
    r = np.asarray(received, dtype=np.complex128)
    if h.ndim == 1:
        h = h[:, None]
    if r.ndim == 1:
        r = r[:, None]
    if h.shape[0] != 4 or r.shape != h.shape:
        raise ValueError(
            f"expected channel and received samples of shape (4, Nr), "
            f"got {h.shape} and {r.shape}"
        )
    c = np.conj
    h1, h2_, h3, h4 = h
    r1, r2, r3, r4 = r
    alpha = -(h1 * c(r1) + c(h2_) * r2 + c(h3) * r3 + h4 * c(r4)).sum()
    beta = (-h4 * c(r1) + c(h3) * r2 + c(h2_) * r3 - h1 * c(r4)).sum()
    chi = (-h2_ * c(r1) + c(h1) * r2 - c(h4) * r3 + h3 * c(r4)).sum()
    delta = (-h3 * c(r1) - c(h4) * r2 + c(h1) * r3 + h2_ * c(r4)).sum()
    gamma = float(2.0 * np.real(h1 * c(h4) - h2_ * c(h3)).sum())
    phi = -gamma
    h2 = float((np.abs(h) ** 2).sum())
    return alpha, beta, chi, delta, gamma, phi, h2


def stack_received(r_complex) -> np.ndarray:
    """Stack complex received samples (T, Nr) into the real layout (2T*Nr,)."""
    r = np.asarray(r_complex, dtype=np.complex128)
    if r.ndim == 1:
        r = r[:, None]
    if r.ndim != 2:
        raise ValueError("received samples must have shape (T,) or (T, Nr)")
    blocks = [np.concatenate([r[:, i].real, r[:, i].imag]) for i in range(r.shape[1])]
    return np.concatenate(blocks)


def unstack_received(r_tilde, T: int) -> np.ndarray:
    """Inverse of :func:`stack_received`; returns complex samples (T, Nr)."""
    r = np.asarray(r_tilde, dtype=np.float64)
    if r.ndim != 1 or r.size % (2 * T) != 0:
        raise ValueError(f"stacked vector length {r.size} is not a multiple of 2T")
    nr = r.size // (2 * T)
    blocks = r.reshape(nr, 2 * T)
    return (blocks[:, :T] + 1j * blocks[:, T:]).T


def metric_q4lt(group_index: int, pair, h, received) -> float:
    """Per-group decision metric of the mixed four-antenna code (Q4_LT).

    ``group_index`` is 1..4 for the rail groups (1,4), (2,3), (5,8), (6,7);
    ``pair`` holds the two candidate rail values in group order. Assumes the
    received samples follow r = C h + noise (fold any SNR scaling into h).
    Equals the generic grouped metric up to a candidate-independent constant.
    """
    alpha, beta, chi, delta, gamma, phi, h2 = matched_filter_terms(h, received)
    sa, sb = float(pair[0]), float(pair[1])
    u = _A_OPT * sa - _B_OPT * sb
    v = _B_OPT * sa + _A_OPT * sb
    if group_index == 1:
        cross = 2.0 * np.real(u * alpha + v * beta) + 2.0 * u * v * gamma
    elif group_index == 2:
        cross = 2.0 * np.real(u * chi + v * delta) + 2.0 * u * v * phi
    elif group_index == 3:
        cross = 2.0 * np.real(1j * u * alpha + 1j * v * beta) + 2.0 * u * v * gamma
    elif group_index == 4:
        cross = 2.0 * np.real(1j * u * chi + 1j * v * delta) + 2.0 * u * v * phi
    else:
        raise ValueError(f"group index {group_index} outside 1..4")
    return float(h2 * (u * u + v * v) + cross)


def q4lt_detect(constellation: Constellation, h, received) -> np.ndarray:
    """Decide all eight rails of Q4_LT by minimising the four group metrics."""
    groups = ((1, 4), (2, 3), (5, 8), (6, 7))
    cands = group_candidates(constellation, 2)
    decided = np.empty(8)
    for gi, group in enumerate(groups, start=1):
        vals = [metric_q4lt(gi, pair, h, received) for pair in cands]
        best = cands[int(np.argmin(vals))]
        decided[group[0] - 1] = best[0]
        decided[group[1] - 1] = best[1]
    return decided


def metric_q4cr(pair_name: str, x_a: complex, x_b: complex, h, received,
                cr_angle: float = math.pi / 4) -> float:
    """Complex-pair decision metric of the rotated four-antenna code (Q4_CR).

    ``pair_name`` is "14" (symbols x1, x4) or "23" (x2, x3); candidates are
    unrotated constellation symbols, the rotation of the second pair member
    is applied inside the metric.
    """
    alpha, beta, chi, delta, gamma, phi, h2 = matched_filter_terms(h, received)
    rot = np.exp(1j * cr_angle)
    if pair_name == "14":
        x4r = x_b * rot
        cross = 2.0 * np.real(
            x_a * alpha + x4r * beta + x_a * np.conj(x4r) * gamma
        )
        return float(h2 * (abs(x_a) ** 2 + abs(x_b) ** 2) + cross)
    if pair_name == "23":
        x3r = x_b * rot
        cross = 2.0 * np.real(
            x_a * chi + x3r * delta + x_a * np.conj(x3r) * phi
        )
        return float(h2 * (abs(x_a) ** 2 + abs(x_b) ** 2) + cross)
    raise ValueError(f"unknown pair {pair_name!r}")


def q4cr_detect(constellation: Constellation, h, received) -> np.ndarray:
    """Decide all eight rails of Q4_CR by minimising the two pair metrics."""
    levels = np.sort(constellation.pam_levels)
    sym_cands = [a + 1j * b for a in levels for b in levels]
    decided = np.empty(8)
    for pair_name, (qa, qb) in (("14", (1, 4)), ("23", (2, 3))):
        vals = [
            metric_q4cr(pair_name, xa, xb, h, received)
            for xa in sym_cands for xb in sym_cands
        ]
        k = int(np.argmin(vals))
        xa = sym_cands[k // len(sym_cands)]
        xb = sym_cands[k % len(sym_cands)]
        decided[qa - 1], decided[4 + qa - 1] = xa.real, xa.imag
        decided[qb - 1], decided[4 + qb - 1] = xb.real, xb.imag
    return decided
