"""Quasi-orthogonality analysis: pair checks, grouping discovery, equivalent channel.

Two dispersion matrices A_p, A_q form an orthogonal pair when their Hermitian
anticommutator vanishes, A_p^H A_q + A_q^H A_p = 0. Pairs that violate this
couple after matched filtering; the connected components of the violation
graph are the code's symbol groups, and the real matched-filter Gram H^T H is
block-diagonal along exactly that partition.

:func:`equivalent_channel` is the package's single equivalent-channel
implementation. It takes one (Nt, Nr) channel or a batch (n, Nt, Nr) alike
and is one matrix product: the (n*Nr, 2Nt) channel rails (Re h, Im h) of
every receive antenna times the code's real dispersion expansions laid out
as a (2Nt, 2T*2K) matrix. The simulator, the detectors and the Gram checks
all call it.

Symbol/rail indices are 1-based everywhere (rails 1..K are the real parts of
the K complex symbols, rails K+1..2K the imaginary parts), matching the
reports and JSON emitted by the CLI.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import CodeDefinition

#: tolerance on the anticommutator max-norm (catalog matrices are exact)
QO_TOL = 1e-12


def anticommutator_norm(a_p, a_q) -> float:
    """Max-norm of A_p^H A_q + A_q^H A_p (zero iff the pair is orthogonal)."""
    a_p = np.asarray(a_p, dtype=np.complex128)
    a_q = np.asarray(a_q, dtype=np.complex128)
    if a_p.shape != a_q.shape:
        raise ValueError(f"dimension mismatch: {a_p.shape} vs {a_q.shape}")
    m = a_p.conj().T @ a_q + a_q.conj().T @ a_p
    return float(np.abs(m).max())


def qo_pair_check(a_p, a_q) -> bool:
    """True when the two dispersion matrices form an orthogonal pair."""
    return anticommutator_norm(a_p, a_q) < QO_TOL


def qo_table(code: "CodeDefinition") -> np.ndarray:
    """(2K, 2K) boolean table; entry [p-1, q-1] is the pair check for rails p, q.

    The diagonal is always False (a matrix never anticommutes with itself),
    so False cells reproduce the X marks of the published fulfillment tables.
    """
    return _anticommutator_table(code.dispersion) < QO_TOL


def discover_grouping(code: "CodeDefinition"):
    """Partition rails 1..2K into groups joined by anticommutator violations.

    Groups are the connected components of the non-orthogonality graph,
    each sorted ascending, listed in order of their smallest member.
    """
    return components_from_stack(code.dispersion)


def _anticommutator_table(stack) -> np.ndarray:
    """(2K, 2K) matrix of anticommutator max-norms for every rail pair."""
    stack = np.asarray(stack, dtype=np.complex128)
    herm = np.einsum("pji,qjk->pqik", stack.conj(), stack)
    return np.abs(herm + herm.transpose(1, 0, 2, 3)).max(axis=(2, 3))


def components_from_stack(stack):
    """Grouping discovery on a raw (2K, T, Nt) dispersion stack."""
    n = len(stack)
    coupled = _anticommutator_table(stack) >= QO_TOL
    np.fill_diagonal(coupled, False)

    seen = np.zeros(n, dtype=bool)
    groups = []
    for start in range(n):
        if seen[start]:
            continue
        comp, frontier = [], [start]
        seen[start] = True
        while frontier:
            u = frontier.pop()
            comp.append(u)
            for v in np.nonzero(coupled[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    frontier.append(int(v))
        groups.append(tuple(sorted(i + 1 for i in comp)))
    groups.sort(key=lambda g: g[0])
    return tuple(groups)


@dataclass(frozen=True)
class SkewSymmetryReport:
    real_part_skew: bool
    imag_part_symmetric: bool


def skew_symmetry_check(a_p, a_q) -> SkewSymmetryReport:
    """For an orthogonal pair, check Re(A_p^H A_q) skew and Im(A_p^H A_q) symmetric.

    These two conditions are what force the real expansions to anticommute and
    hence the matched-filter Gram to be block-diagonal. Raises if the pair is
    not orthogonal in the first place.
    """
    if not qo_pair_check(a_p, a_q):
        raise ValueError(
            "skew-symmetry check requires an orthogonal pair "
            "(the matrices belong to the same group)"
        )
    m = np.asarray(a_p, dtype=np.complex128).conj().T @ np.asarray(
        a_q, dtype=np.complex128
    )
    re, im = m.real, m.imag
    return SkewSymmetryReport(
        real_part_skew=bool(np.abs(re + re.T).max(initial=0.0) < QO_TOL),
        imag_part_symmetric=bool(np.abs(im - im.T).max(initial=0.0) < QO_TOL),
    )


def real_expansion(a) -> np.ndarray:
    """Return the real block form [[Re, -Im], [Im, Re]] of a complex matrix,
    or of each matrix of a stack (..., m, k).

    The map is a ring homomorphism: the expansion of a product equals the
    product of the expansions, and det(expansion) == |det|^2.
    """
    a = np.asarray(a, dtype=np.complex128)
    return np.concatenate([np.concatenate([a.real, -a.imag], axis=-1),
                           np.concatenate([a.imag, a.real], axis=-1)],
                          axis=-2)


def expansion_stack(code: "CodeDefinition") -> np.ndarray:
    """(2K, 2T, 2Nt) stack of the real expansions of the dispersion matrices."""
    return real_expansion(code.dispersion)


def as_channel(h) -> np.ndarray:
    """Coerce a channel to complex (Nt, Nr) or (n, Nt, Nr); 1-D input
    becomes a column."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim == 1:
        h = h[:, None]
    if h.ndim not in (2, 3):
        raise ValueError(
            f"channel must be (Nt, Nr) or (n, Nt, Nr), got shape {h.shape}"
        )
    return h


def equivalent_channel(code: "CodeDefinition", h,
                       stack: np.ndarray = None) -> np.ndarray:
    """Real equivalent channel H of shape (2T*Nr, 2K), or (n, 2T*Nr, 2K)
    for a batch of channels.

    Column p stacks, per receive antenna, the real expansion of A_p applied
    to that antenna's stacked channel rails (Re h, Im h); the received
    vector layout is (Re r_i, Im r_i) blocks of length T per antenna i.
    ``stack`` is the code's :func:`expansion_stack`, computed when omitted.
    """
    h = as_channel(h)
    if h.shape[-2] != code.nt:
        raise ValueError(
            f"channel has {h.shape[-2]} transmit rows, code expects {code.nt}"
        )
    if stack is None:
        stack = expansion_stack(code)
    rails = np.concatenate([h.real, h.imag], axis=-2)       # (..., 2Nt, Nr)
    rails = np.swapaxes(rails, -1, -2).reshape(-1, 2 * code.nt)
    weights = stack.transpose(2, 1, 0).reshape(2 * code.nt, -1)
    cols = rails @ weights                                 # (n*Nr, 2T*2K)
    return cols.reshape(*h.shape[:-2], h.shape[-1] * 2 * code.T, 2 * code.K)


@dataclass(frozen=True)
class GramBlockReport:
    gram: np.ndarray
    max_off_group: float
    max_entry: float


def gram_block_report(code: "CodeDefinition", h) -> GramBlockReport:
    """Compute H^T H and the largest entry magnitude outside the group blocks."""
    H = equivalent_channel(code, h)
    gram = H.T @ H
    off = off_group_mask(code.grouping, gram.shape[0])
    max_off = float(np.abs(gram[off]).max()) if off.any() else 0.0
    return GramBlockReport(
        gram=gram,
        max_off_group=max_off,
        max_entry=float(np.abs(gram).max()),
    )


def off_group_mask(grouping, n: int) -> np.ndarray:
    """Boolean (n, n) mask of entries whose row/col rails lie in different groups."""
    label = np.empty(n, dtype=np.int64)
    for gi, group in enumerate(grouping):
        for rail in group:
            label[rail - 1] = gi
    return label[:, None] != label[None, :]


def joint_detection_size(code: "CodeDefinition") -> int:
    """Number of real symbols that must be detected jointly (largest group)."""
    return max(len(g) for g in code.grouping)

