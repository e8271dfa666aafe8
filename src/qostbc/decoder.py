"""Maximum-likelihood detection: grouped (block-diagonal Gram) and exhaustive.

:func:`detect_from_equivalent_batch` is the one grouped detector. It takes a
batch of real equivalent channels H (from :func:`equivalent_channel_batch`,
the package's single equivalent-channel function) and received vectors r,
forms the matched filter z = H^T r and the Gram G = H^T H, and, because G is
block-diagonal along the code's symbol grouping, detects each group's rails
independently by enumerating that group's PAM candidates:

    minimise  sqrt(rho/Nt) * s_g^T G_gg s_g - 2 z_g^T s_g

which shares its argmin with the exact per-group ML metric.

The metric is scored on the group's distinct Gram functionals. Gram entry
(i, j) is the sum over receive antennas of x^T Q_ij x, x the antenna's
channel rails and Q_ij = sym(S_i^T S_j) from the real expansions S of the
dispersion matrices (:func:`gram_classes`). Entries whose form vanishes are
zero for every channel, and entries whose forms agree up to sign are equal
up to sign, so the g(g+1)/2 upper-triangle entries collapse to R classes:
2 per group for Q4_CR, 6 for T8_CR; codes without such structure (T8_LT)
keep all of them. The metric is then one matrix product per group: the
(n, R + g) weights [sqrt(rho/Nt) G at each class's representative entry,
-2 z_g] times a (R + g, C) feature matrix whose row for a class is the
signed sum of its pair products s_i s_j (doubled off the diagonal),
followed by the candidate rails. In exact arithmetic this is the same
metric, so the argmin and its tie-break are unchanged. The candidates and
features depend only on the group's expansion sub-stack and the PAM levels;
they are built once, cached by that content (never by code name) in a
bounded cache, and read-only.

Frames are scored in blocks whose (frames, C) float64 metric stays within
:data:`METRIC_BLOCK_BYTES`, about an L2 cache, and holds at least
:data:`METRIC_BLOCK_MIN_FRAMES` frames so that a large feature table is
streamed once per block rather than once per frame; the rule depends only
on C. Each frame's decision depends only on its own row, so the blocking
never changes a decision. A group may have at most
:data:`GROUP_CANDIDATE_CAP` candidates (:class:`CandidateBudgetError`
otherwise).

A single block is a batch of one. The exhaustive detector minimises the full
residual ||r - sqrt(rho/Nt) H s||^2 over every codeword of one block and
exists as the oracle. Both break metric ties toward the lexicographically
smallest candidate (candidates are enumerated over ascending PAM levels), so
their decisions are comparable event by event.
"""

import functools
import math

import numpy as np

from .analysis import (QO_TOL, equivalent_channel, expansion_stack,
                       joint_detection_size)
from .catalog import CodeDefinition
from .modem import Constellation, lex_vectors

#: candidate budget guard for the exhaustive oracle
EXHAUSTIVE_BUDGET = 10 ** 6

#: most candidates one symbol group may enumerate in grouped detection
GROUP_CANDIDATE_CAP = 2 ** 16

#: largest (frames, candidates) float64 metric block scored at once, about
#: an L2 cache, so that each block's argmin reads the product from cache
METRIC_BLOCK_BYTES = 512 * 2 ** 10

#: fewest frames per metric block, so that a large candidate table is
#: streamed once per block of frames rather than once per frame
METRIC_BLOCK_MIN_FRAMES = 16

#: most candidate tables kept (each at most 11 MiB under the candidate cap)
TABLE_CACHE_SIZE = 16

#: the equivalent channel under the name the batched pipeline uses
#: (``bench/run.py`` times it as ``decoder.equivalent_channel_batch``)
equivalent_channel_batch = equivalent_channel


class CandidateBudgetError(ValueError):
    """Raised when a symbol group has more ML candidates than the cap."""

    def __init__(self, count: int):
        super().__init__(f"grouped detection of {count} candidates per group "
                         f"exceeds cap {GROUP_CANDIDATE_CAP}")
        self.count = count


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


def gram_classes(stack_rows):
    """The distinct Gram functionals of a symbol group.

    ``stack_rows`` is the group's (g, 2T, 2Nt) real expansion sub-stack.
    Gram entry (i, j) is the sum over receive antennas of x^T Q_ij x, x the
    antenna's channel rails and Q_ij = sym(S_i^T S_j), so entries whose
    forms vanish are zero for every channel and entries whose forms agree
    up to sign are equal up to sign. Forms within QO_TOL (max-norm) of zero
    or of each other are treated as such. Returns ``reps``, the (R, 2)
    group-local index pairs of each class's first upper-triangle entry, and
    ``merge``, the (R, g(g+1)/2) matrix whose row r holds the sign (+1 or -1)
    of every upper-triangle entry of class r relative to its representative.
    """
    stack_rows = np.asarray(stack_rows, dtype=np.float64)
    prods = np.einsum("iab,jac->ijbc", stack_rows, stack_rows)
    forms = 0.5 * (prods + prods.transpose(1, 0, 2, 3))
    rows, cols = np.triu_indices(len(stack_rows))
    reps, merge = [], []
    for k, form in enumerate(forms[rows, cols]):
        if np.abs(form).max() < QO_TOL:
            continue
        for r, (a, b) in enumerate(reps):
            if np.abs(form - forms[a, b]).max() < QO_TOL:
                merge[r][k] = 1.0
                break
            if np.abs(form + forms[a, b]).max() < QO_TOL:
                merge[r][k] = -1.0
                break
        else:
            reps.append((rows[k], cols[k]))
            merge.append(np.zeros(len(rows)))
            merge[-1][k] = 1.0
    return (np.array(reps, dtype=np.intp).reshape(-1, 2),
            np.array(merge).reshape(len(reps), len(rows)))


# Two bounded caches, both keyed by content, never by code name: codes that
# share a name may differ (``transforms.apply_cr`` and ``apply_gclt`` name
# every transformed code after its base, whatever its angles). The class
# structures are a few KiB each; every group of a catalog code has the same
# one, so the large tables are shared between its groups.
@functools.lru_cache(maxsize=256)
def _stack_classes(stack_bytes: bytes, shape: tuple):
    """:func:`gram_classes` of a sub-stack given by its bytes, read-only."""
    classes = gram_classes(np.frombuffer(stack_bytes).reshape(shape))
    for table in classes:
        table.flags.writeable = False
    return classes


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _class_tables(levels: tuple, size: int, merge_bytes: bytes):
    """Read-only (candidates (C, g), features (R + g, C)) of a group.

    Feature row r < R is class r's signed sum of pair products s_i s_j
    (doubled off the diagonal), filled one pair at a time so that the build
    holds little beyond the two tables.
    """
    merge = np.frombuffer(merge_bytes).reshape(-1, size * (size + 1) // 2)
    rows, cols = np.triu_indices(size)
    cands = lex_vectors(levels, size)
    features = np.zeros((len(merge) + size, len(cands)))
    pair = np.empty(len(cands))
    for r, signs in enumerate(merge):
        for k in np.flatnonzero(signs):
            i, j = rows[k], cols[k]
            np.multiply(cands[:, i], cands[:, j], out=pair)
            pair *= signs[k] * (1.0 if i == j else 2.0)
            features[r] += pair
    features[len(merge):] = cands.T
    cands.flags.writeable = False
    features.flags.writeable = False
    return cands, features


def group_tables(constellation: Constellation, stack_rows):
    """Cached read-only tables of the group whose expansion sub-stack is
    ``stack_rows`` (g, 2T, 2Nt): the candidates (equal to
    :func:`group_candidates`), the class representatives of
    :func:`gram_classes` and the (R + g, C) metric features."""
    stack_rows = np.ascontiguousarray(stack_rows, dtype=np.float64)
    reps, merge = _stack_classes(stack_rows.tobytes(), stack_rows.shape)
    cands, features = _class_tables(tuple(np.sort(constellation.pam_levels)),
                                    len(stack_rows), merge.tobytes())
    return cands, reps, features


def metric_block_frames(count: int) -> int:
    """Frames per metric block for a group of ``count`` candidates."""
    return max(METRIC_BLOCK_MIN_FRAMES, METRIC_BLOCK_BYTES // (8 * count))


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
    z = (received_batch[:, None, :] @ H)[:, 0]
    factor = math.sqrt(rho / code.nt)
    stack = expansion_stack(code)

    decided = np.empty((n, 2 * code.K))
    best = np.empty(n, dtype=np.intp)
    for group in code.grouping:
        idx = np.array(group) - 1
        cands, reps, features = group_tables(constellation, stack[idx])
        weights = np.concatenate(
            [factor * gram[:, idx[reps[:, 0]], idx[reps[:, 1]]],
             -2.0 * z[:, idx]], axis=1
        )
        block = metric_block_frames(len(cands))
        for start in range(0, n, block):
            np.argmin(weights[start:start + block] @ features, axis=1,
                      out=best[start:start + block])
        decided[:, idx] = cands[best]
    return decided


def exhaustive_ml_detect(code: CodeDefinition, constellation: Constellation,
                         h, received, rho: float) -> np.ndarray:
    """Oracle ML for one block: minimise the residual over all M^K codewords.

    ``h`` is the complex (Nt, Nr) channel and ``received`` the stacked
    vector of length 2*T*Nr; returns the decided rails (2K,).
    """
    count = constellation.order ** code.K
    if count > EXHAUSTIVE_BUDGET:
        raise ValueError(
            f"exhaustive search over {count} codewords exceeds budget "
            f"{EXHAUSTIVE_BUDGET}"
        )
    r = np.asarray(received, dtype=np.float64)
    H = equivalent_channel(code, h)
    cands = group_candidates(constellation, 2 * code.K)
    resid = r[None, :] - math.sqrt(rho / code.nt) * cands @ H.T
    vals = np.einsum("ct,ct->c", resid, resid)
    return cands[int(np.argmin(vals))]
