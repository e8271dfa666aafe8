"""Maximum-likelihood detection: grouped (block-diagonal Gram) and exhaustive.

With H the real equivalent channel of a frame and r its received vector,
the Gram G = H^T H is block-diagonal along the code's symbol grouping, so
grouped ML detects each group's rails independently by enumerating that
group's PAM candidates:

    minimise  sqrt(rho/Nt) * s_g^T G_gg s_g - 2 z_g^T s_g

with z = H^T r the matched filter; this shares its argmin with the exact
per-group ML metric.

The metric is scored on the group's distinct Gram functionals. Gram entry
(i, j) is the sum over receive antennas of x^T Q_ij x, x the antenna's
channel rails and Q_ij the real expansion of N_ij / 2, with the pair
anticommutator N_ij = A_i^H A_j + A_j^H A_i (:func:`gram_classes`). Entries
whose form vanishes are zero for every channel, and entries whose forms
agree up to sign are equal up to sign, so the g(g+1)/2 upper-triangle
entries collapse to R classes: 2 per group for Q4_CR, 6 for T8_CR; codes
without such structure (T8_LT) keep all of them. The metric is then one
matrix product per group: the (n, R + g) weights [sqrt(rho/Nt) G at each
class's representative entry, -2 z_g] times a (R + g, C) feature matrix
whose row for a class is the signed sum of its pair products s_i s_j
(doubled off the diagonal), followed by the candidate rails. In exact
arithmetic this is the same metric, so the argmin and its tie-break are
unchanged. The candidates and features depend only on the group's size, its
classes and the PAM levels; they are built once per plan, shared by the
plan's groups with equal classes, and read-only.

A :class:`DetectionPlan` (:func:`detection_plan`, cached per code and
constellation) holds every group's tables and its columns of one weight
array; :meth:`DetectionPlan.decide` is the one decision core. Two routes
feed it each frame's class values and z:

- :meth:`DetectionPlan.detect`, the simulator's, through
  :meth:`DetectionPlan.statistics`: G_ab = Re tr(P_ab R) is linear in the
  channel covariance R = h h^H (P_ab = A_a^H A_b, from
  :func:`analysis.pair_products`), and z = sqrt(rho/Nt) G s + H^T n with
  H^T n linear in W = N h^H, N the complex noise. Fixed real maps give both
  from R and W, so no equivalent channel, received vector or full Gram is
  formed;
- :func:`detect_from_equivalent_batch`, given H and r: the class values are
  read off H^T H and z is H^T r.

The routes agree in exact arithmetic and differ in the last bits, so they
could part only at a metric near-tie. Both run over the plan's one block
rule, :meth:`DetectionPlan.blocks`: balanced blocks of as many frames as fit
:data:`BLOCK_BYTES` of the larger of a frame's R and W ((Nt + T, Nt)
complex) and its largest group's float64 metric, but at least
:data:`BLOCK_MIN_FRAMES`. A row of a product of two or more rows has the
same bits whatever the row count (a one-row product goes through gemv and
rounds differently); every per-frame value is the frame's own product or
such a row, and a block holds two frames or more unless the batch is one
frame, so no bit or decision depends on the blocks. A group may have at most
:data:`GROUP_CANDIDATE_CAP` candidates (:class:`CandidateBudgetError`
otherwise).

A single block is a batch of one. The exhaustive detector takes, checks and
returns what the grouped one does, minimises each frame's full residual
||r - sqrt(rho/Nt) H s||^2 over every codeword and exists as the oracle.
Both break metric ties toward the lexicographically smallest candidate
(candidates are enumerated over ascending PAM levels), so their decisions
are comparable event by event.
"""

import functools
import math

import numpy as np

from .analysis import (QO_TOL, equivalent_channel, joint_detection_size,
                       pair_products)
from .catalog import CodeDefinition
from .modem import Constellation, lex_vectors

#: candidate budget guard for the exhaustive oracle
EXHAUSTIVE_BUDGET = 10 ** 6

#: most candidates one symbol group may enumerate in grouped detection
GROUP_CANDIDATE_CAP = 2 ** 16

#: most bytes of R and W or of one group's metric per block: 512 frames of
#: T8 or of 256 candidates; on a 2-core Xeon 0.5 to 8 MiB of R and W, and
#: 128 KiB to 1 MiB of metric, ran the benchmark curves within about 5%
BLOCK_BYTES = 1 << 20

#: fewest frames per block, so that a large candidate table is streamed once
#: per block of frames rather than once per frame
BLOCK_MIN_FRAMES = 16

#: most detection plans kept (each table at most 11 MiB under the cap)
PLAN_CACHE_SIZE = 16

#: the equivalent channel under its former pipeline name; the simulator no
#: longer forms one, and only ``bench/run.py``'s traced replica of a chunk
#: reads this name
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


def gram_classes(sub_stack):
    """The distinct Gram functionals of a symbol group.

    ``sub_stack`` is the group's (g, T, Nt) dispersion sub-stack. Gram entry
    (i, j) is the sum over receive antennas of x^T Q_ij x, x the antenna's
    channel rails and Q_ij the real expansion of N_ij / 2 (N_ij the pair
    anticommutator), so entries whose forms vanish are zero for every channel
    and entries whose forms agree up to sign are equal up to sign. Forms
    within QO_TOL (max-norm, so 2 QO_TOL on N_ij's real and imaginary parts)
    of zero or of each other are treated as such. Returns ``reps``, the
    (R, 2) group-local index pairs of each class's first upper-triangle
    entry, and ``merge``, the (R, g(g+1)/2) matrix whose row r holds the sign
    (+1 or -1) of every upper-triangle entry of class r relative to its
    representative.
    """
    prods = pair_products(sub_stack)
    anti = prods + prods.transpose(1, 0, 2, 3)
    forms = np.concatenate([anti.real, anti.imag], axis=-1)
    rows, cols = np.triu_indices(len(forms))
    reps, merge = [], []
    for k, form in enumerate(forms[rows, cols]):
        if np.abs(form).max() < 2 * QO_TOL:
            continue
        for r, (a, b) in enumerate(reps):
            if np.abs(form - forms[a, b]).max() < 2 * QO_TOL:
                merge[r][k] = 1.0
                break
            if np.abs(form + forms[a, b]).max() < 2 * QO_TOL:
                merge[r][k] = -1.0
                break
        else:
            reps.append((rows[k], cols[k]))
            merge.append(np.zeros(len(rows)))
            merge[-1][k] = 1.0
    return (np.array(reps, dtype=np.intp).reshape(-1, 2),
            np.array(merge).reshape(len(reps), len(rows)))


def _class_tables(constellation: Constellation, size: int, merge):
    """Read-only (candidates (C, g), features (R + g, C)) of a group of
    ``size`` rails whose Gram classes have the sign matrix ``merge``
    (:func:`gram_classes`).

    Feature row r < R is class r's signed sum of pair products s_i s_j
    (doubled off the diagonal), filled one pair at a time so that the build
    holds little beyond the two tables.
    """
    rows, cols = np.triu_indices(size)
    cands = group_candidates(constellation, size)
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


def balanced_blocks(n: int, parts: int) -> list:
    """``parts`` (at least one) consecutive slices covering range(n), the
    first n % parts of them one longer than the rest (the split of
    ``np.array_split``)."""
    parts = max(1, parts)
    size, extra = divmod(n, parts)
    bounds = [k * size + min(k, extra) for k in range(parts + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _check_batch(code: CodeDefinition, H: np.ndarray, batch, rho: float,
                 name: str = "received batch") -> np.ndarray:
    """Validate ``H`` (n, 2*T*Nr, 2K), an (n, 2*T*Nr) ``batch`` (called
    ``name`` in errors) and ``rho``; returns the batch as float64."""
    if (H.ndim != 3 or H.shape[2] != 2 * code.K or not H.shape[1]
            or H.shape[1] % (2 * code.T)):
        raise ValueError(f"equivalent channels have shape {H.shape}, expected"
                         f" (n, {2 * code.T}*Nr, {2 * code.K})")
    batch = np.asarray(batch, dtype=np.float64)
    if batch.shape != H.shape[:2]:
        raise ValueError(f"{name} has shape {batch.shape}, expected "
                         f"{H.shape[:2]}")
    _check_rho(rho)
    return batch


def _check_rho(rho: float) -> None:
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be finite and positive, got {rho}")


class DetectionPlan:
    """Grouped ML detection of one (code, constellation), built once.

    Holds each group's rails, candidates, features and column slice of one
    (n, width) weight array, and three fixed real maps: ``class_map`` from
    R's (Re, Im) entries to every class value, ``noise_map`` from W's to
    H^T n (entry p is Re tr(A_p^H W)) and ``signal_map`` from the (class
    value x rail) products to G s; ``block_frames`` is the block rule's.
    """

    def __init__(self, code: CodeDefinition, constellation: Constellation):
        check_candidate_budget(code, constellation)
        self.code = code
        groups, pairs, classes, rails, signal = [], [], [], [], []
        tables = {}
        width = 0
        for group in code.grouping:
            idx = np.array(group) - 1
            reps, merge = gram_classes(code.dispersion[idx])
            # groups with equal classes share one table
            key = (len(idx), merge.tobytes())
            if key not in tables:
                tables[key] = _class_tables(constellation, len(idx), merge)
            cands, features = tables[key]
            groups.append((idx, cands, features,
                           slice(width, width + len(reps) + len(idx))))
            # signs[r, q, p]: the sign of class r in Gram entry (p, q)
            signs = np.zeros((len(reps), len(idx), len(idx)))
            upper = np.triu_indices(len(idx))
            signs[:, upper[0], upper[1]] = signs[:, upper[1], upper[0]] = merge
            block = np.zeros((signs.size // len(idx), 2 * code.K))
            block[:, idx] = signs.reshape(-1, len(idx))
            signal.append(block)
            classes.append(np.repeat(np.arange(len(reps)) + len(pairs),
                                     len(idx)))
            rails.append(np.tile(idx, len(reps)))
            pairs.extend(idx[reps])
            width += len(reps) + len(idx)
        self.groups = tuple(groups)
        self.width = width
        self.pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        self.rails = np.concatenate([idx for idx, *_ in groups])
        self.class_cols = np.concatenate(
            [np.arange(c.start, c.stop - len(i)) for i, _, _, c in groups])
        self.rail_cols = np.concatenate(
            [np.arange(c.stop - len(i), c.stop) for i, _, _, c in groups])
        herm = np.conj(pair_products(code.dispersion)[tuple(self.pairs.T)])
        self.class_map = np.ascontiguousarray(herm.swapaxes(1, 2)).view(
            np.float64).reshape(len(pairs), -1).T.copy()
        self.noise_map = code.dispersion.view(np.float64).reshape(
            2 * code.K, -1).T.copy()
        signal = np.concatenate(signal)
        used = signal.any(axis=1)
        self.signal_map = signal[used]
        self.product_classes = np.concatenate(classes)[used]
        self.product_rails = np.concatenate(rails)[used]
        frame_bytes = max(16 * (code.nt + code.T) * code.nt,
                          8 * max(len(cands) for _, cands, _, _ in groups))
        self.block_frames = max(BLOCK_MIN_FRAMES, BLOCK_BYTES // frame_bytes)
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.flags.writeable = False

    def statistics(self, h: np.ndarray, noise: np.ndarray, s: np.ndarray,
                   rho: float):
        """(class values (n, classes), z (n, 2K)) of frames sent as
        ``s`` (n, 2K) through channels ``h`` (n, Nt, Nr) with ``noise``
        (n, 2T*Nr), laid out as (Re, Im) blocks of length T per antenna.

        R and W come from one product of the stacked [h; N] (n, Nt+T, Nr)
        with h^H: an outer product at Nr = 1, a batched product otherwise.
        """
        n, nt, nr = h.shape
        T = self.code.T
        stacked = np.empty((n, nt + T, nr), dtype=np.complex128)
        stacked[:, :nt] = h
        parts = noise.reshape(n, nr, 2, T).transpose(0, 2, 3, 1)
        stacked[:, nt:].real = parts[:, 0]
        stacked[:, nt:].imag = parts[:, 1]
        product = np.multiply if nr == 1 else np.matmul
        outer = product(stacked, np.conj(h).swapaxes(1, 2))
        flat = outer.reshape(n, -1).view(np.float64)
        values = flat[:, :2 * nt * nt] @ self.class_map
        signal = (values[:, self.product_classes]
                  * s[:, self.product_rails]) @ self.signal_map
        signal *= math.sqrt(rho / nt)
        signal += flat[:, 2 * nt * nt:] @ self.noise_map
        return values, signal

    def decide(self, values: np.ndarray, z: np.ndarray,
               rho: float) -> np.ndarray:
        """Decided rails (n, 2K) from each frame's class values and matched
        filter: per group, the metric of every candidate is the group's
        column slice of the weights [sqrt(rho/Nt) class values, -2 z] times
        its features, one product per call; the argmin takes the
        lexicographically smallest candidate of a tie."""
        n = len(z)
        weights = np.empty((n, self.width))
        weights[:, self.class_cols] = math.sqrt(rho / self.code.nt) * values
        weights[:, self.rail_cols] = -2.0 * z[:, self.rails]
        decided = np.empty((n, len(self.rails)))
        for idx, cands, features, cols in self.groups:
            decided[:, idx] = cands[np.argmin(weights[:, cols] @ features,
                                              axis=1)]
        return decided

    def blocks(self, n: int) -> list:
        """Balanced slices of n frames, each of at most ``block_frames``
        frames and, when n > 1, at least two."""
        return balanced_blocks(n, -(-n // self.block_frames))

    def detect(self, h: np.ndarray, noise: np.ndarray, s: np.ndarray,
               rho: float) -> np.ndarray:
        """Decided rails (n, 2K) of frames sent as ``s`` (n, 2K) through
        channels ``h`` (n, Nt, Nr) with ``noise`` (n, 2T*Nr): :meth:`decide`
        on :meth:`statistics`, over :meth:`blocks`. Raises ``ValueError`` on
        other shapes or a ``rho`` that is not finite and positive."""
        code = self.code
        h, noise, s = np.asarray(h), np.asarray(noise), np.asarray(s)
        n, _, nr = h.shape if h.ndim == 3 else (0, 0, 0)
        if (h.shape != (n, code.nt, nr) or not nr
                or noise.shape != (n, 2 * code.T * nr)
                or s.shape != (n, 2 * code.K)):
            raise ValueError(
                f"channels, noise and symbols have shapes {h.shape}, "
                f"{noise.shape} and {s.shape}, expected (n, {code.nt}, Nr), "
                f"(n, {2 * code.T}*Nr) and (n, {2 * code.K})")
        _check_rho(rho)
        decided = np.empty((n, 2 * code.K))
        for rows in self.blocks(n):
            values, z = self.statistics(h[rows], noise[rows], s[rows], rho)
            decided[rows] = self.decide(values, z, rho)
        return decided


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def detection_plan(code: CodeDefinition,
                   constellation: Constellation) -> DetectionPlan:
    """The cached :class:`DetectionPlan` of a code object (codes hash by
    identity, never by name) and a constellation."""
    return DetectionPlan(code, constellation)


def detect_from_equivalent_batch(code: CodeDefinition,
                                 constellation: Constellation,
                                 H: np.ndarray, received_batch: np.ndarray,
                                 rho: float) -> np.ndarray:
    """Grouped ML detection of a batch of independent blocks.

    ``H`` holds the equivalent channels, shape (n, 2*T*Nr, 2K), and
    ``received_batch`` the stacked received vectors, shape (n, 2*T*Nr);
    ``rho`` is the SNR of the transmission model. Returns the decided rails,
    shape (n, 2K). Each row's decision depends only on that row. The class
    values are read off each frame's Gram H^T H and z is H^T r; the decision
    is :meth:`DetectionPlan.decide`'s over :meth:`DetectionPlan.blocks`, as
    in the simulator.
    """
    received_batch = _check_batch(code, H, received_batch, rho)
    plan = detection_plan(code, constellation)
    decided = np.empty((len(H), 2 * code.K))
    for rows in plan.blocks(len(H)):
        gram = np.swapaxes(H[rows], 1, 2) @ H[rows]
        z = (received_batch[rows, None, :] @ H[rows])[:, 0]
        decided[rows] = plan.decide(
            gram[:, plan.pairs[:, 0], plan.pairs[:, 1]], z, rho)
    return decided


def exhaustive_ml_detect(code: CodeDefinition, constellation: Constellation,
                         H: np.ndarray, received_batch: np.ndarray,
                         rho: float) -> np.ndarray:
    """Oracle ML: each frame's decision minimises ||r - sqrt(rho/Nt) H s||^2
    over all M^K codewords. Takes and returns what
    :func:`detect_from_equivalent_batch` does."""
    received_batch = _check_batch(code, H, received_batch, rho)
    count = constellation.order ** code.K
    if count > EXHAUSTIVE_BUDGET:
        raise ValueError(f"exhaustive search over {count} codewords exceeds "
                         f"budget {EXHAUSTIVE_BUDGET}")
    cands = group_candidates(constellation, 2 * code.K)
    factor = math.sqrt(rho / code.nt)
    resids = (r - factor * cands @ Hf.T for Hf, r in zip(H, received_batch))
    return cands[[np.argmin(np.einsum("ct,ct->c", e, e)) for e in resids]]
