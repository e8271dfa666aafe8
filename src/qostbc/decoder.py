"""Maximum-likelihood detection: grouped (block-diagonal Gram) and exhaustive.

:func:`detect_from_equivalent_batch` is the one grouped detector. It takes a
batch of real equivalent channels H (from :func:`equivalent_channel_batch`,
the package's single equivalent-channel function) and received vectors r,
forms the matched filter z = H^T r and the Gram G = H^T H, and, because G is
block-diagonal along the code's symbol grouping, detects each group's rails
independently by enumerating that group's PAM candidates:

    minimise  sqrt(rho/Nt) * s_g^T G_gg s_g - 2 z_g^T s_g

which shares its argmin with the exact per-group ML metric. The metric is
linear in the g(g+1)/2 upper-triangle Gram entries and the g matched-filter
entries of a group, so one matrix product scores every candidate of every
frame: the (n, g(g+1)/2 + g) weights [sqrt(rho/Nt) G_ij (i <= j), -2 z_g]
times a (g(g+1)/2 + g, C) feature matrix whose rows are the pair products
s_i s_j (doubled off the diagonal) followed by the candidate rails. The
candidates and their features depend only on the PAM levels and the group
size; they are built once per process and cached as read-only arrays.

Memory is bounded twice. A group may have at most
:data:`GROUP_CANDIDATE_CAP` candidates (:class:`CandidateBudgetError`
otherwise), and frames are scored in blocks whose (frames, C) float64
metric stays within :data:`METRIC_BLOCK_BYTES`. Each frame's decision
depends only on its own row, so the blocking never changes a decision.

A single block is a batch of one. The exhaustive detector minimises the full
residual ||r - sqrt(rho/Nt) H s||^2 over every codeword of one block and
exists as the oracle. Both break metric ties toward the lexicographically
smallest candidate (candidates are enumerated over ascending PAM levels), so
their decisions are comparable event by event.

The closed-form per-group metrics of the four-antenna mixed and rotated
codes are implemented from the matched-filter terms of the code matrices
and cross-checked against the grouped detector in the tests.
"""

import functools
import math

import numpy as np

from .analysis import equivalent_channel, joint_detection_size
from .catalog import CodeDefinition
from .modem import Constellation, lex_vectors

#: candidate budget guard for the exhaustive oracle
EXHAUSTIVE_BUDGET = 10 ** 6

#: most candidates one symbol group may enumerate in grouped detection
GROUP_CANDIDATE_CAP = 2 ** 16

#: largest (frames, candidates) float64 metric block scored at once
METRIC_BLOCK_BYTES = 64 * 2 ** 20

#: the equivalent channel under the name the batched pipeline uses
#: (``bench/run.py`` times it as ``decoder.equivalent_channel_batch``)
equivalent_channel_batch = equivalent_channel


class CandidateBudgetError(ValueError):
    """Raised when a symbol group has more ML candidates than the cap."""

    def __init__(self, count: int, cap: int = GROUP_CANDIDATE_CAP):
        super().__init__(
            f"grouped detection of {count} candidates per group exceeds "
            f"cap {cap}"
        )
        self.count = count
        self.cap = cap


def group_candidates(constellation: Constellation, size: int) -> np.ndarray:
    """All PAM candidate sub-vectors for a group, lexicographically ascending."""
    return lex_vectors(np.sort(constellation.pam_levels), size)


def check_candidate_budget(code: CodeDefinition,
                           constellation: Constellation) -> None:
    """Raise :class:`CandidateBudgetError` when the largest symbol group of
    ``code`` has more than :data:`GROUP_CANDIDATE_CAP` candidates."""
    count = constellation.levels_per_rail ** joint_detection_size(code)
    if count > GROUP_CANDIDATE_CAP:
        raise CandidateBudgetError(count)


# Keyed by (PAM levels, group size); the cap bounds both, so the cache holds
# a handful of entries of at most a few tens of MiB.
@functools.lru_cache(maxsize=None)
def _candidate_tables(levels: tuple, size: int):
    """Read-only (candidates (C, g), features (g(g+1)/2 + g, C)) of a group.

    The features are filled row by row, so building them holds little
    beyond the two tables themselves.
    """
    cands = lex_vectors(levels, size)
    rows, cols = np.triu_indices(size)
    features = np.empty((len(rows) + size, len(cands)))
    for k, (i, j) in enumerate(zip(rows, cols)):
        np.multiply(cands[:, i], cands[:, j], out=features[k])
        if i != j:
            features[k] *= 2.0
    features[len(rows):] = cands.T
    cands.flags.writeable = False
    features.flags.writeable = False
    return cands, features


def candidate_tables(constellation: Constellation, size: int):
    """Cached read-only candidates and metric features of a ``size``-rail
    group; the candidates equal :func:`group_candidates`."""
    return _candidate_tables(tuple(np.sort(constellation.pam_levels)), size)


def detect_from_equivalent_batch(code: CodeDefinition,
                                 constellation: Constellation,
                                 H: np.ndarray, received_batch: np.ndarray,
                                 rho: float) -> np.ndarray:
    """Grouped ML detection of a batch of independent blocks.

    ``H`` holds the equivalent channels, shape (n, 2*T*Nr, 2K), and
    ``received_batch`` the stacked received vectors, shape (n, 2*T*Nr);
    ``rho`` is the SNR of the transmission model. Returns the decided rails,
    shape (n, 2K). Each row's decision depends only on that row.
    """
    received_batch = np.asarray(received_batch, dtype=np.float64)
    if received_batch.shape != H.shape[:2]:
        raise ValueError(
            f"received batch has shape {received_batch.shape}, expected "
            f"{H.shape[:2]}"
        )
    check_candidate_budget(code, constellation)
    n = H.shape[0]
    gram = np.swapaxes(H, 1, 2) @ H
    z = np.einsum("btp,bt->bp", H, received_batch)
    factor = math.sqrt(rho / code.nt)

    decided = np.empty((n, 2 * code.K))
    for group in code.grouping:
        idx = np.array(group) - 1
        cands, features = candidate_tables(constellation, len(idx))
        rows, cols = np.triu_indices(len(idx))
        weights = np.concatenate(
            [factor * gram[:, idx[rows], idx[cols]], -2.0 * z[:, idx]], axis=1
        )
        block = max(1, METRIC_BLOCK_BYTES // (8 * len(cands)))
        for start in range(0, n, block):
            best = np.argmin(weights[start:start + block] @ features, axis=1)
            decided[start:start + block, idx] = cands[best]
    return decided


def exhaustive_ml_detect(code: CodeDefinition, constellation: Constellation,
                         h, received, rho: float,
                         budget: int = EXHAUSTIVE_BUDGET) -> np.ndarray:
    """Oracle ML for one block: minimise the residual over all M^K codewords.

    ``h`` is the complex (Nt, Nr) channel and ``received`` the stacked
    vector of length 2*T*Nr; returns the decided rails (2K,).
    """
    count = constellation.order ** code.K
    if count > budget:
        raise ValueError(
            f"exhaustive search over {count} codewords exceeds budget {budget}"
        )
    r = np.asarray(received, dtype=np.float64)
    H = equivalent_channel(code, h)
    cands = group_candidates(constellation, 2 * code.K)
    resid = r[None, :] - math.sqrt(rho / code.nt) * cands @ H.T
    vals = np.einsum("ct,ct->c", resid, resid)
    return cands[int(np.argmin(vals))]


# --------------------------------------------------------------------------
# closed-form metrics of the four-antenna family
#
# The matched-filter terms below are derived from the code matrices: time
# slots whose row carries conjugated symbols contribute conj(h)*r instead of
# h*conj(r). The tests pin the argmin equivalence of these metrics against
# the generic Gram detector.

_A_OPT = math.cos(0.5 * math.atan(0.5))
_B_OPT = math.sin(0.5 * math.atan(0.5))


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
