"""Catalog of quasi-orthogonal and orthogonal space-time block codes.

Every code is an :class:`analysis.CodeDefinition`: a name and a stack of 2K
dispersion matrices of size T x Nt (rails 1..K modulate the real parts of
the K complex symbols, rails K+1..2K the imaginary parts). Everything else
is read off the stack: T, Nt and K from its shape, and the symbol grouping
from its anticommutator pattern (:func:`analysis.components_from_stack`).
The catalog names the codes and builds them from recipes. Codewords
are C = sum_p s_p A_p for real rail values s_p, and every dispersion matrix
satisfies the power constraint tr(A_p^H A_p) = T*Nt/K.

The catalog covers four families:

* ``Q4`` / ``Q4_CR`` / ``Q4_LT`` -- the rate-1 four-antenna code built from
  two Alamouti blocks, plus its rotated and group-mixed full-diversity
  variants (the base dispersion matrices are stored as exact literals).
* ``Q8`` / ``Q8_CR`` / ``Q8_LT`` -- the rate-3/4 eight-antenna code built
  from two rate-3/4 four-antenna orthogonal designs.
* ``T8`` / ``T8_CR`` / ``T8_LT`` -- the rate-1 eight-antenna code built by
  nesting four Alamouti blocks two levels deep.
* ``G4C`` -- the half-rate fully orthogonal four-antenna benchmark
  (single-symbol decoding; its grouping is all singletons).
"""

import functools
import math

import numpy as np

from . import transforms
from .analysis import CodeDefinition

#: optimal 2-D mixing angle for the pairwise-grouped codes: 0.5*atan(1/2)
OPT_THETA_2D = 0.5 * math.atan(0.5)

#: default rotation for the constellation-rotated four- and eight-antenna codes
CR_ANGLE_DEFAULT = math.pi / 4

#: T8_CR's family step: the progression (:func:`t8_cr_angles`) rotates the
#: k-th symbol of each coupled family by k*pi/8
T8_CR_STEP = math.pi / 8

#: the symbols rotated by CR_ANGLE_DEFAULT in each constellation-rotated
#: code of that default; read by the catalog and the Q8_CR angle search
CR_SYMBOLS = {"Q4_CR": (3, 4), "Q8_CR": (4, 5, 6)}

#: T8_LT's searched plane angles (degrees) in the factor order of their
#: left-to-right plane-rotation product, conjugated by diag(1, 1, 1, -1)
T8_LT_ANGLES = (((2, 4), 44.24), ((3, 4), -46.11), ((1, 3), 9.13),
                ((1, 2), -45.66), ((2, 3), 9.43), ((1, 4), 37.78))


def encode(code: CodeDefinition, real_symbols) -> np.ndarray:
    """Codeword C = sum_p s_p A_p for a 2K-vector of real rail values."""
    s = np.asarray(real_symbols, dtype=np.float64)
    if s.shape != (2 * code.K,):
        raise ValueError(
            f"symbol vector has shape {s.shape}, expected ({2 * code.K},)"
        )
    return np.einsum("p,ptn->tn", s, code.dispersion)


def validate_power(code: CodeDefinition):
    """Report per-matrix power traces against the T*Nt/K target.

    Returns (traces, ok), ok when every trace is within 1e-12 of the
    target; violations are reported, never raised.
    """
    traces = np.einsum("pti,pti->p", code.dispersion.conj(), code.dispersion).real
    ok = bool(np.abs(traces - code.power_target).max() <= 1e-12)
    return traces, ok


# --------------------------------------------------------------------------
# component blocks

def _alamouti(a, b) -> np.ndarray:
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


def _ortho34(x1, x2, x3) -> np.ndarray:
    """Rate-3/4 complex orthogonal design for four antennas (4x4, 3 symbols)."""
    c = np.conj
    return np.array([
        [x1, x2, x3, 0],
        [-c(x2), c(x1), 0, -x3],
        [-c(x3), 0, c(x1), x2],
        [0, c(x3), -c(x2), x1],
    ])


def _dispersion_from_encoder(encoder, K: int) -> np.ndarray:
    """Extract the 2K dispersion matrices of a codeword function of x_1..x_K."""
    mats = []
    for p in range(2 * K):
        x = np.zeros(K, dtype=np.complex128)
        x[p % K] = 1.0 if p < K else 1.0j
        mats.append(encoder(x))
    return np.array(mats)


# --------------------------------------------------------------------------
# base codes

# Rate-1 four-antenna quasi-orthogonal code: two Alamouti blocks A(x1,x2),
# B(x3,x4) arranged as [[A, B], [-B*, A*]]. The eight dispersion matrices
# are exact 0/+-1/+-j patterns, stored literally.
_J = 1.0j
_Q4_DISPERSION = np.array([
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
    [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
    [[_J, 0, 0, 0], [0, -_J, 0, 0], [0, 0, -_J, 0], [0, 0, 0, _J]],
    [[0, _J, 0, 0], [_J, 0, 0, 0], [0, 0, 0, -_J], [0, 0, -_J, 0]],
    [[0, 0, _J, 0], [0, 0, 0, -_J], [_J, 0, 0, 0], [0, -_J, 0, 0]],
    [[0, 0, 0, _J], [0, 0, _J, 0], [0, _J, 0, 0], [_J, 0, 0, 0]],
], dtype=np.complex128)


def _q8_codeword(x) -> np.ndarray:
    # Two rate-3/4 orthogonal designs in an ABBA arrangement. Rotating the
    # second block's symbols by 90 degrees pairs each real rail with the
    # partner symbol's imaginary rail, which is what makes the grouping come
    # out as six two-rail groups. The sqrt(4/3) factor restores the power
    # target T*Nt/K = 32/3.
    A = _ortho34(x[0], x[1], x[2])
    B = _ortho34(1j * x[3], 1j * x[4], 1j * x[5])
    return math.sqrt(4.0 / 3.0) * np.vstack(
        [np.hstack([A, B]), np.hstack([B, A])]
    )


def _t8_codeword(x) -> np.ndarray:
    # Nested ABBA over four Alamouti blocks. The symbol placement inside the
    # B and C blocks is chosen so the four-rail groups come out as
    # (1,4,6,7), (2,3,5,8) and their imaginary counterparts.
    A = _alamouti(x[0], x[1])
    B = _alamouti(x[3], x[2])
    C = _alamouti(x[5], x[4])
    D = _alamouti(x[6], x[7])
    return np.vstack([
        np.hstack([A, B, C, D]),
        np.hstack([B, A, D, C]),
        np.hstack([C, D, A, B]),
        np.hstack([D, C, B, A]),
    ])


def _g4c_codeword(x) -> np.ndarray:
    # Half-rate fully orthogonal design for four antennas: the 4x4 real
    # orthogonal design on top of its conjugate, 8 periods for 4 symbols.
    x1, x2, x3, x4 = x
    top = np.array([
        [x1, x2, x3, x4],
        [-x2, x1, -x4, x3],
        [-x3, x4, x1, -x2],
        [-x4, -x3, x2, x1],
    ])
    return np.vstack([top, np.conj(top)])


# --------------------------------------------------------------------------
# derived variants

def _t8_lt_mixing() -> np.ndarray:
    """T8_LT's 4-D group mixing from :data:`T8_LT_ANGLES`; other angle
    conventions reach it by passing it to GcltSpec(groups, matrices)."""
    factors = [(i, k, math.radians(deg)) for (i, k), deg in T8_LT_ANGLES]
    s = np.diag([1.0, 1.0, 1.0, -1.0])
    return s @ transforms.givens_product(4, factors) @ s


def t8_cr_angles(steps) -> tuple:
    """(symbol, angle) pairs of T8_CR's progression, in symbol order: the
    k-th symbol (k = 0..3) of each coupled family, a T8 group of real rails,
    is rotated by k times that family's step (radians) in ``steps``."""
    base = build("T8")
    families = [g for g in base.grouping if max(g) <= base.K]
    return tuple(sorted((sym, k * step)
                        for family, step in zip(families, steps)
                        for k, sym in enumerate(family)))


#: every catalog code's recipe: a base code's dispersion stack; for a
#: ``_CR`` variant the (symbol, angle) pairs rotated in its base code, for an
#: ``_LT`` one the orthogonal mixing of every group of its base code
_RECIPES = {
    "Q4": lambda: _Q4_DISPERSION,
    "Q4_CR": lambda: [(s, CR_ANGLE_DEFAULT) for s in CR_SYMBOLS["Q4_CR"]],
    "Q4_LT": lambda: transforms.rotation_2d(OPT_THETA_2D),
    "Q8": lambda: _dispersion_from_encoder(_q8_codeword, 6),
    "Q8_CR": lambda: [(s, CR_ANGLE_DEFAULT) for s in CR_SYMBOLS["Q8_CR"]],
    "Q8_LT": lambda: transforms.rotation_2d(OPT_THETA_2D),
    "T8": lambda: _dispersion_from_encoder(_t8_codeword, 8),
    "T8_CR": lambda: t8_cr_angles((T8_CR_STEP, T8_CR_STEP)),
    "T8_LT": _t8_lt_mixing,
    "G4C": lambda: _dispersion_from_encoder(_g4c_codeword, 4),
}

CODE_NAMES = tuple(_RECIPES)


@functools.cache
def build(name: str) -> CodeDefinition:
    """Construct (and cache) a catalog code by name from its recipe."""
    if name not in CODE_NAMES:
        raise ValueError(
            f"unknown code {name!r}; valid names: {', '.join(CODE_NAMES)}"
        )
    made = _RECIPES[name]()
    base, _, variant = name.partition("_")
    if not variant:
        return CodeDefinition(name, made)
    code = build(base)
    if variant == "CR":
        return transforms.apply_cr(code, made, name=name)
    spec = transforms.GcltSpec(code.grouping, [made] * len(code.grouping))
    return transforms.apply_gclt(code, spec, name=name)


# --------------------------------------------------------------------------
# serialization

def code_to_dict(code: CodeDefinition) -> dict:
    """JSON-ready dump: {name, T, Nt, K, matrices, grouping}.

    Matrix entries are [re, im] pairs, row-major per T x Nt matrix.
    """
    return {
        "name": code.name,
        "T": code.T,
        "Nt": code.nt,
        "K": code.K,
        "matrices": [
            [[[float(v.real), float(v.imag)] for v in row] for row in mat]
            for mat in code.dispersion
        ],
        "grouping": [list(g) for g in code.grouping],
    }
