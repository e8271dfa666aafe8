"""Group-constrained linear transformation (GCLT) and constellation rotation (CR).

GCLT mixes dispersion matrices with a real orthogonal matrix *within each
symbol group* and renormalises each output to the power target. Because
cross-group anticommutators are bilinear in the group members, any such
mixing preserves the quasi-orthogonal grouping while reshaping the code's
distance spectrum; picking the mixing angles well restores full diversity.

CR rotates chosen complex symbols by a fixed phase. It is implemented here
as the equivalent rotation of each symbol's (real, imaginary) pair of
dispersion matrices, so a rotated code is an ordinary CodeDefinition whose
codewords for unrotated input symbols equal those of the rotated
constellation. Rotation bridges rails of different groups, enlarging them.
Both are plane rotations of real rail pairs; :func:`cr_rotation` is CR's,
read by :func:`apply_cr` and by the CR angle searches of :mod:`qostbc.gain`.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import CodeDefinition

#: orthogonality tolerance for mixing matrices
ORTHO_TOL = 1e-12

#: natural factor order of the six-plane 4-D rotation product
GIVENS_ORDER_4D = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def rotation_2d(theta) -> np.ndarray:
    """2-D mixing matrix [[cos, sin], [-sin, cos]]; a stack of them for a
    1-D array of angles."""
    return givens_rotation(2, 1, 2, theta)


def givens_rotation(n: int, i: int, k: int, theta) -> np.ndarray:
    """n x n rotation by theta in the (i, k) plane, 1-based axes, i < k.

    For an array of angles, a stack of one rotation per angle, of shape
    theta.shape + (n, n); each entry is the one a scalar angle gives
    (``math.cos`` and ``math.sin`` of every angle).
    """
    if not (1 <= i < k <= n):
        raise ValueError(f"invalid plane ({i}, {k}) for size {n}")
    t = np.asarray(theta, dtype=np.float64)
    flat = t.ravel().tolist()
    bad = [x for x in flat if not math.isfinite(x)]
    if bad:
        raise ValueError(f"rotation angle {bad[0]} is not finite")
    c = np.array(list(map(math.cos, flat))).reshape(t.shape)
    s = np.array(list(map(math.sin, flat))).reshape(t.shape)
    g = np.empty(t.shape + (n, n))
    g[...] = _identity(n)
    g[..., i - 1, i - 1] = g[..., k - 1, k - 1] = c
    g[..., i - 1, k - 1] = s
    g[..., k - 1, i - 1] = -s
    return g


@functools.cache
def _identity(n: int) -> np.ndarray:
    """Read-only n x n identity, copied by each plane rotation."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def givens_product(n: int, factors) -> np.ndarray:
    """Left-to-right product of (i, k, theta) plane rotations; angles of
    equal shape give the stack of products."""
    out = np.eye(n)
    for i, k, theta in factors:
        out = out @ givens_rotation(n, i, k, theta)
    return out


def givens_4d(angles) -> np.ndarray:
    """4-D orthogonal matrix from a sequence of six plane angles in the
    order of GIVENS_ORDER_4D; the product is taken left to right in that
    fixed order. An (S, 6) array of angle vectors gives the (S, 4, 4)
    stack of their matrices. This is :func:`givens_4d_line` at j = 0."""
    values = np.asarray(angles, dtype=np.float64)
    return givens_4d_line(values, 0)(values[..., 0])


def givens_4d_line(angles, j: int):
    """``t -> givens_4d(angles with angle j set to t)`` for an (S, 6) stack
    of angle vectors and (S,) values t, bit for bit.

    The factors other than j are built once, as is the prefix product of
    the factors before j; each call builds factor j and multiplies it and
    the later factors in one at a time, left to right in GIVENS_ORDER_4D.
    """
    values = np.asarray(angles, dtype=np.float64)
    if values.ndim == 0 or values.shape[-1] != 6:
        raise ValueError(f"expected six angles, got shape {values.shape}")
    planes = GIVENS_ORDER_4D
    prefix = givens_product(4, [(i, k, values[..., p])
                                for p, (i, k) in enumerate(planes[:j])])
    suffix = [givens_rotation(4, i, k, values[..., p])
              for p, (i, k) in enumerate(planes) if p > j]

    def line(t) -> np.ndarray:
        out = prefix @ givens_rotation(4, *planes[j], t)
        for g in suffix:
            out = out @ g
        return out

    return line


@dataclass(frozen=True)
class GcltSpec:
    """Per-group real orthogonal mixing matrices.

    ``groups`` lists 1-based rail index tuples; ``matrices[i]`` mixes the
    rails of ``groups[i]`` in their listed order (row r of the matrix builds
    the new dispersion matrix of rail ``groups[i][r]``). Both are stored as
    tuples, each matrix as a float copy, checked here and nowhere else.
    """

    groups: tuple
    matrices: tuple

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(tuple(g) for g in self.groups))
        object.__setattr__(self, "matrices",
                           tuple(np.array(m, dtype=float) for m in self.matrices))
        if len(self.groups) != len(self.matrices):
            raise ValueError("one mixing matrix per group is required")
        for group, mat in zip(self.groups, self.matrices):
            n = len(group)
            if mat.shape != (n, n):
                raise ValueError(
                    f"group {group} needs a {n}x{n} mixing matrix, "
                    f"got {mat.shape}"
                )
            if not np.isfinite(mat).all():
                raise ValueError(
                    f"mixing matrix for group {group} has non-finite entries"
                )
            if np.abs(mat.T @ mat - np.eye(n)).max() > ORTHO_TOL:
                raise ValueError(f"mixing matrix for group {group} is not orthogonal")

    @classmethod
    def rotations_2d(cls, grouping, theta: float) -> "GcltSpec":
        """The same plane rotation by ``theta`` for every group."""
        return cls(grouping, [rotation_2d(theta)] * len(grouping))

    @classmethod
    def givens_4d_spec(cls, grouping, angles) -> "GcltSpec":
        """The same six-angle 4-D rotation for every group."""
        return cls(grouping, [givens_4d(angles)] * len(grouping))


def apply_gclt(code: CodeDefinition, spec: GcltSpec, name: str = None) -> CodeDefinition:
    """Mix dispersion matrices within groups and renormalise to the power target.

    The spec's groups must partition the rails exactly as the code's own
    grouping does (listed order within a group is the spec's choice). Each
    output matrix is scaled so its power trace equals T*Nt/K again.
    """
    code_sets = {frozenset(g) for g in code.grouping}
    spec_sets = {frozenset(g) for g in spec.groups}
    if code_sets != spec_sets:
        raise ValueError(
            f"spec groups {sorted(map(sorted, spec_sets))} do not match "
            f"code grouping {sorted(map(sorted, code_sets))}"
        )
    new = np.array(code.dispersion, dtype=np.complex128)
    target = code.power_target
    for group, mat in zip(spec.groups, spec.matrices):
        base = code.dispersion[[p - 1 for p in group]]
        mixed = np.einsum("rv,vtn->rtn", mat, base)
        for row, rail in enumerate(group):
            m = mixed[row]
            trace = float(np.einsum("ti,ti->", m.conj(), m).real)
            if trace <= ORTHO_TOL:
                raise ValueError(
                    f"degenerate mixing row for rail {rail} in group {group}: "
                    f"zero power trace"
                )
            new[rail - 1] = m * math.sqrt(target / trace)
    return CodeDefinition(name or f"{code.name}+GCLT", new)


def cr_rotation(K: int, angles) -> np.ndarray:
    """The (2K, 2K) rail rotation of CR: rotation_2d(phi) on the rails
    (q, K+q) of every (symbol q, angle phi) in ``angles``, identity
    elsewhere; row p builds the rotated code's matrix of rail p. Angles
    that are arrays of one shape give the stack of rotations. The one
    check of a CR angle set: symbols in 1..K, none twice, and every angle
    (every entry of an array) in [0, pi/2), so none is nan or infinite."""
    angles = list(angles)
    symbols = [sym for sym, _ in angles]
    if len(set(symbols)) < len(symbols):
        raise ValueError(f"duplicate symbol index in CR angles {symbols}")
    for sym, phi in angles:
        if not 1 <= sym <= K:
            raise ValueError(f"symbol index {sym} outside 1..{K}")
        bad = [x for x in np.ravel(phi).tolist() if not 0.0 <= x < math.pi / 2]
        if bad:
            raise ValueError(f"rotation angle {bad[0]!r} for symbol {sym} "
                             f"outside [0, pi/2)")
    shape = np.broadcast_shapes(*(np.shape(phi) for _, phi in angles))
    rot = np.empty(shape + (2 * K, 2 * K))
    rot[...] = _identity(2 * K)
    for sym, phi in angles:
        rot[..., sym - 1::K, sym - 1::K] = rotation_2d(phi)  # rails q, K+q
    return rot


def apply_cr(code: CodeDefinition, angles, name: str = None) -> CodeDefinition:
    """Rotate the chosen complex symbols by their (symbol, angle) pairs,
    scalar angles checked by :func:`cr_rotation`; an angle of any other
    shape raises ValueError.

    For symbol x_q at angle phi the (real, imaginary) dispersion pair
    (A_q, A_{K+q}) becomes (cos*A_q + sin*A_{K+q}, -sin*A_q + cos*A_{K+q}),
    the rows of :func:`cr_rotation`; encoding unrotated rail values through
    the new matrices reproduces the codeword of the rotated constellation.
    Each pair is its two-term sum: a sum over every rail would turn -0.0
    entries into 0.0.
    """
    K = code.K
    angles = list(angles)
    for sym, phi in angles:
        if np.ndim(phi):
            raise ValueError(f"CR angle for symbol {sym} must be a scalar, "
                             f"got shape {np.shape(phi)}")
    rot = cr_rotation(K, angles)
    new = np.array(code.dispersion, dtype=np.complex128)
    for sym, _ in angles:
        i, j = sym - 1, K + sym - 1
        a_re, a_im = code.dispersion[i], code.dispersion[j]
        new[i] = rot[i, i] * a_re + rot[i, j] * a_im
        new[j] = rot[j, i] * a_re + rot[j, j] * a_im
    return CodeDefinition(name or f"{code.name}+CR", new)
