"""Catalog of quasi-orthogonal and orthogonal space-time block codes.

Every code is a :class:`CodeDefinition`: a stack of 2K dispersion matrices of
size T x Nt (rails 1..K modulate the real parts of the K complex symbols,
rails K+1..2K the imaginary parts), the discovered symbol grouping, and the
dimensions. Codewords are C = sum_p s_p A_p for real rail values s_p, and
every dispersion matrix satisfies the power constraint
tr(A_p^H A_p) = T*Nt/K.

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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import components_from_stack

CODE_NAMES = (
    "Q4", "Q4_CR", "Q4_LT",
    "Q8", "Q8_CR", "Q8_LT",
    "T8", "T8_CR", "T8_LT",
    "G4C",
)

#: optimal 2-D mixing angle for the pairwise-grouped codes: 0.5*atan(1/2)
OPT_THETA_2D = 0.5 * math.atan(0.5)

#: default rotation for the constellation-rotated four- and eight-antenna codes
CR_ANGLE_DEFAULT = math.pi / 4

#: T8_CR's family step: the progression (:func:`t8_cr_angles`) rotates the
#: k-th symbol of each coupled family by k*pi/8
T8_CR_STEP = math.pi / 8

#: searched mixing angles (degrees) for the rate-1 eight-antenna code, keyed
#: by rotation plane of the 4-D group mixing
T8_LT_ANGLES_DEG = {
    (1, 2): -45.66,
    (1, 3): 9.13,
    (1, 4): 37.78,
    (2, 3): 9.43,
    (2, 4): 44.24,
    (3, 4): -46.11,
}

#: factor order the angle set above pairs with (left-to-right plane-rotation
#: product, conjugated by diag(1,1,1,-1))
T8_LT_FACTOR_ORDER = ((2, 4), (3, 4), (1, 3), (1, 2), (2, 3), (1, 4))


@dataclass(frozen=True)
class CodeDefinition:
    """A linear space-time block code over real symbol rails.

    ``dispersion`` has shape (2K, T, Nt); ``grouping`` is a partition of the
    1-based rail indices 1..2K into jointly-detected sets, sorted by smallest
    member.
    """

    name: str
    T: int
    nt: int
    K: int
    dispersion: np.ndarray
    grouping: tuple

    def __post_init__(self):
        d = self.dispersion
        if d.shape != (2 * self.K, self.T, self.nt):
            raise ValueError(
                f"dispersion shape {d.shape} does not match "
                f"(2K, T, Nt) = ({2 * self.K}, {self.T}, {self.nt})"
            )
        if not np.all(np.isfinite(d.real)) or not np.all(np.isfinite(d.imag)):
            raise ValueError("dispersion entries must be finite")
        flat = sorted(i for g in self.grouping for i in g)
        if flat != list(range(1, 2 * self.K + 1)):
            raise ValueError("grouping is not a partition of 1..2K")

    @property
    def rate(self) -> Fraction:
        return Fraction(self.K, self.T)

    @property
    def power_target(self) -> float:
        """Required trace of every A_p^H A_p."""
        return self.T * self.nt / self.K


def make_code(name: str, T: int, nt: int, K: int, dispersion) -> CodeDefinition:
    """Build a CodeDefinition from a dispersion stack, discovering its grouping."""
    stack = np.asarray(dispersion, dtype=np.complex128).copy()
    stack.setflags(write=False)
    grouping = components_from_stack(stack)
    return CodeDefinition(
        name=name, T=T, nt=nt, K=K, dispersion=stack, grouping=grouping
    )


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
    """4-D orthogonal mixing for T8_LT from the searched plane angles.

    The angle set attaches to this particular factor order and a sign
    conjugation of the fourth group position; other conventions reach the
    same matrix through the raw-matrix GcltSpec interface.
    """
    from .transforms import givens_product

    factors = [
        (i, k, math.radians(T8_LT_ANGLES_DEG[(i, k)]))
        for (i, k) in T8_LT_FACTOR_ORDER
    ]
    L = givens_product(4, factors)
    s = np.diag([1.0, 1.0, 1.0, -1.0])
    return s @ L @ s


def t8_cr_angles(steps) -> tuple:
    """(symbol, angle) pairs of T8_CR's progression, in symbol order: the
    k-th symbol (k = 0..3) of each coupled family, a T8 group of real rails,
    is rotated by k times that family's step (radians) in ``steps``."""
    base = build("T8")
    families = [g for g in base.grouping if max(g) <= base.K]
    return tuple(sorted((sym, k * step)
                        for family, step in zip(families, steps)
                        for k, sym in enumerate(family)))


def _builders():
    from . import transforms

    def q4():
        return make_code("Q4", 4, 4, 4, _Q4_DISPERSION)

    def q8():
        return make_code("Q8", 8, 8, 6, _dispersion_from_encoder(_q8_codeword, 6))

    def t8():
        return make_code("T8", 8, 8, 8, _dispersion_from_encoder(_t8_codeword, 8))

    def g4c():
        return make_code("G4C", 8, 4, 4, _dispersion_from_encoder(_g4c_codeword, 4))

    def q4_cr():
        spec = transforms.CrSpec.uniform((3, 4), CR_ANGLE_DEFAULT)
        return transforms.apply_cr(build("Q4"), spec, name="Q4_CR")

    def q4_lt():
        spec = transforms.GcltSpec.rotations_2d(build("Q4").grouping, OPT_THETA_2D)
        return transforms.apply_gclt(build("Q4"), spec, name="Q4_LT")

    def q8_cr():
        spec = transforms.CrSpec.uniform((4, 5, 6), CR_ANGLE_DEFAULT)
        return transforms.apply_cr(build("Q8"), spec, name="Q8_CR")

    def q8_lt():
        spec = transforms.GcltSpec.rotations_2d(build("Q8").grouping, OPT_THETA_2D)
        return transforms.apply_gclt(build("Q8"), spec, name="Q8_LT")

    def t8_cr():
        spec = transforms.CrSpec(t8_cr_angles((T8_CR_STEP, T8_CR_STEP)))
        return transforms.apply_cr(build("T8"), spec, name="T8_CR")

    def t8_lt():
        base = build("T8")
        mix = _t8_lt_mixing()
        spec = transforms.GcltSpec.from_matrices(
            base.grouping, tuple(mix for _ in base.grouping)
        )
        return transforms.apply_gclt(base, spec, name="T8_LT")

    return {
        "Q4": q4, "Q4_CR": q4_cr, "Q4_LT": q4_lt,
        "Q8": q8, "Q8_CR": q8_cr, "Q8_LT": q8_lt,
        "T8": t8, "T8_CR": t8_cr, "T8_LT": t8_lt,
        "G4C": g4c,
    }


_CACHE: dict = {}


def build(name: str) -> CodeDefinition:
    """Construct (and cache) a catalog code by name."""
    if name not in CODE_NAMES:
        raise ValueError(
            f"unknown code {name!r}; valid names: {', '.join(CODE_NAMES)}"
        )
    if name not in _CACHE:
        _CACHE[name] = _builders()[name]()
    return _CACHE[name]


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


def code_from_dict(data: dict) -> CodeDefinition:
    """Rebuild a code from :func:`code_to_dict` output (grouping rediscovered)."""
    mats = np.array(
        [[[re + 1j * im for (re, im) in row] for row in mat]
         for mat in data["matrices"]],
        dtype=np.complex128,
    )
    return make_code(data["name"], data["T"], data["Nt"], data["K"], mats)

