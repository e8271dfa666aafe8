"""Code structure: the code type and what its dispersion stack determines.

A :class:`CodeDefinition` is a name and a (2K, T, Nt) dispersion stack;
T, Nt, K and the symbol grouping are read off it. Two dispersion matrices
A_p, A_q form an orthogonal pair when their Hermitian anticommutator
N_pq = P_pq + P_qp vanishes, P_pq = A_p^H A_q the package's one
pair-product tensor (:func:`pair_products`; its real part gives the
coding-gain factor forms, and a detection plan reads each group's
(g, g, Nt, Nt) block of it for the Gram classes). :func:`qo_table` holds
that check for every rail pair. Pairs that violate it couple after matched
filtering; the connected components of the violation graph are the code's
symbol groups (:func:`components_from_stack`, a transitive closure run once
per code; ``code.grouping`` is its result), and H^T H is block-diagonal
along exactly that partition.

:func:`equivalent_channel` is the package's single equivalent-channel
implementation. It takes only a batch (n, Nt, Nr) of channels (one channel
is a batch of one, one receive antenna an Nr of 1) and is one matrix
product: the (n*Nr, 2Nt) channel rails (Re h, Im h) of every receive
antenna times the code's real dispersion expansions laid out as a
(2Nt, 2T*2K) matrix. Only the checks of :mod:`qostbc.checks` call it: the
detectors take H, and the simulator detects from the channel covariance.

Symbol/rail indices are 1-based everywhere (rails 1..K are the real parts of
the K complex symbols, rails K+1..2K the imaginary parts), matching the
reports and JSON emitted by the CLI.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

#: tolerance on the anticommutator max-norm (catalog matrices are exact)
QO_TOL = 1e-12


def pair_products(stack) -> np.ndarray:
    """(m, m, Nt, Nt) pair products A_a^H A_b of an (m, T, Nt) stack."""
    stack = np.asarray(stack, dtype=np.complex128)
    return np.einsum("pji,qjk->pqik", stack.conj(), stack)


def _anticommutator_table(stack) -> np.ndarray:
    """(2K, 2K) matrix of anticommutator max-norms for every rail pair."""
    herm = pair_products(stack)
    return np.abs(herm + herm.transpose(1, 0, 2, 3)).max(axis=(2, 3))


def components_from_stack(stack):
    """Symbol groups of a (2K, T, Nt) dispersion stack: the components of
    its pair-check violations, each sorted, ordered by smallest rail."""
    n = len(stack)
    reach = (_anticommutator_table(stack) >= QO_TOL) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):  # paths of up to 2^k steps
        reach = reach @ reach
    return tuple(dict.fromkeys(tuple((np.flatnonzero(row) + 1).tolist())
                               for row in reach))


@dataclass(frozen=True, eq=False)
class CodeDefinition:
    """A linear space-time block code over real symbol rails: a name and its
    dispersion stack.

    ``dispersion`` is stored as a read-only complex copy of shape
    (2K, T, Nt), from which T, Nt and K are read; ``grouping`` is computed
    from it: the partition of the 1-based rails 1..2K into jointly-detected
    sets, sorted by smallest member. Codes compare and hash by identity.
    """

    name: str
    dispersion: np.ndarray
    grouping: tuple = field(init=False)

    def __post_init__(self):
        d = np.array(self.dispersion, dtype=np.complex128)
        if d.ndim != 3 or 0 in d.shape or d.shape[0] % 2:
            raise ValueError(
                f"dispersion shape {d.shape} is not a (2K, T, Nt) stack"
            )
        if not np.isfinite(d).all():
            raise ValueError("dispersion entries must be finite")
        d.setflags(write=False)
        object.__setattr__(self, "dispersion", d)
        object.__setattr__(self, "grouping", components_from_stack(d))

    @property
    def K(self) -> int:
        return self.dispersion.shape[0] // 2

    @property
    def T(self) -> int:
        return self.dispersion.shape[1]

    @property
    def nt(self) -> int:
        return self.dispersion.shape[2]

    @property
    def rate(self) -> Fraction:
        return Fraction(self.K, self.T)

    @property
    def power_target(self) -> float:
        """Required trace of every A_p^H A_p."""
        return self.T * self.nt / self.K


def qo_table(code: CodeDefinition) -> np.ndarray:
    """(2K, 2K) boolean table; entry [p-1, q-1] is the pair check for rails p, q.

    The diagonal is always False (a matrix never anticommutes with itself),
    so False cells reproduce the X marks of the published fulfillment tables.
    """
    return _anticommutator_table(code.dispersion) < QO_TOL


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


def expansion_stack(code: CodeDefinition) -> np.ndarray:
    """(2K, 2T, 2Nt) stack of the real expansions of the dispersion matrices."""
    return real_expansion(code.dispersion)


def equivalent_channel(code: CodeDefinition, h,
                       stack: np.ndarray = None) -> np.ndarray:
    """Real equivalent channels H of shape (n, 2T*Nr, 2K) of a batch of
    (n, Nt, Nr) channels.

    Column p stacks, per receive antenna, the real expansion of A_p applied
    to that antenna's stacked channel rails (Re h, Im h); the received
    vector layout is (Re r_i, Im r_i) blocks of length T per antenna i.
    One channel is a batch of one. ``stack`` is the code's
    :func:`expansion_stack`, computed when omitted.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 3:
        raise ValueError(f"channel must be (n, Nt, Nr), got shape {h.shape}")
    if h.shape[1] != code.nt:
        raise ValueError(f"channel has {h.shape[1]} transmit rows, code "
                         f"expects {code.nt}")
    if stack is None:
        stack = expansion_stack(code)
    rails = np.concatenate([h.real, h.imag], axis=1)        # (n, 2Nt, Nr)
    rails = np.swapaxes(rails, 1, 2).reshape(-1, 2 * code.nt)
    weights = stack.transpose(2, 1, 0).reshape(2 * code.nt, -1)
    cols = rails @ weights                                 # (n*Nr, 2T*2K)
    return cols.reshape(len(h), h.shape[2] * 2 * code.T, 2 * code.K)


def joint_detection_size(code: CodeDefinition) -> int:
    """Number of real symbols that must be detected jointly (largest group)."""
    return max(len(g) for g in code.grouping)

