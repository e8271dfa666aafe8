"""Coding-gain machinery: distance determinants, minimum-determinant search,
diversity products, and the angle searches for the transformed codes.

The figure of merit is the determinant of the codeword distance Gram
(DC)^H (DC) over nonzero error patterns DC = sum_p delta_p A_p, where each
delta_p is an integer multiple of the constellation's PAM minimum distance.
A code has full transmit diversity iff the minimum determinant over error
patterns is nonzero; the diversity product normalises that minimum:

    zeta = (1 / (2 sqrt(Nt))) * min_det ** (1 / (2 T))

Searches enumerate integer multiplier patterns and scale by d_min at report
time (the determinant is homogeneous of degree 2*Nt in the deltas).

The angle searches (:func:`search_t8_angles`, :func:`search_q8_cr_angle`
and :func:`search_t8_cr_steps`) build no transformed code. Group mixing
(GCLT) and constellation rotation (CR) act on a group only through its
error coefficients: a pattern c of the transformed code is the pattern
c @ mix of the base code, with mix the group's orthogonal mixing or its
block of CR's rail rotation, :func:`transforms.cr_rotation`. One evaluator,
:func:`_mixed_min_det`, scores a rail set's base-code patterns under a
stack of mixes in one call, and a single mix is a stack of one; a mix's
minimum does not depend on the mixes stacked with it. Each step of a search
is one call: ``search-t8`` runs its starts in lockstep and scores every
start's next point together, and the CR searches score a whole grid of
angles at once. :func:`_zeta_of` is the one place that maps a minimum to
zeta. Under a mix shared by all groups, groups whose factor forms are
byte-equal give bit-equal minima, so ``search-t8``'s objective scores each
distinct set of forms once: T8's four groups are equivalent and share one.

Each enumeration scores one pattern of every pair +-c, the lexicographically
first (:func:`_patterns`): -c has the bit-equal determinant of c and mixes
to exactly -(c @ mix), so the minimum and first argmin are the full scan's.

Enumerations are screened before they are scored. A QO-STBC Gram has paired
eigenvalues q_1, q_1, ..., q_F, q_F (F = Nt/2), each a quadratic form
q_k = c^T M_k c in the pattern c (:func:`_det_factor_forms`), so its
determinant is prod_k q_k^2. The q_k come from small tables, not from
materialised pattern rows (:func:`_form_blocks`): with c = (a, b) split into
its first w // 2 rails and the rest, q_k = a^T M_aa a + b^T M_bb b
+ 2 a^T M_ab b, the square terms tabled once over the prefixes and the
suffixes and the cross term one matrix product per block of prefixes. The
angle sweep screens each rotated rail pair with that pair's 2 x 2 block of
the forms. Only the rows the screen keeps are built, bit for bit as the
unscreened scan builds them, and given the exact determinant
(:func:`_batched_dets`, an LU per row). The screen never drops a possible
minimum: both the screened value and the LU determinant of a row lie within
SCREEN_RTOL * ||G||^Nt of the true determinant, where ||G|| = max_k |q_k| is
the row's Gram norm. (An LU of G with backward error E, ||E|| <= gamma ||G||,
perturbs the determinant by at most ((1 + gamma)^Nt - 1) ||G||^Nt, and gamma
is a small multiple of the unit roundoff 1.1e-16. The table sums stay as
close: tr G = 2 sum_k q_k is proportional to |c|^2 for the catalog codes, so
each of the three terms is at most a modest multiple of max_k |q_k| and
their rounded sum is within a few ulps of it; over every catalog
enumeration at 4- and 16-QAM and Q8_LT's full stack at 4-QAM, the table
q_k differ from extended-precision ones by at most 8.7e-16 max_k |q_k|.
Over every catalog code, within-group at 4- and 16-QAM and on the full
stacks at 4-QAM, the screened and LU values differ by at most
8.8e-15 ||G||^Nt.) A row is dropped only when its lower bound exceeds the
smallest upper bound in its block, so every row whose exact determinant
attains the minimum survives, and the first survivor with the minimal exact
value is the first argmin of the unscreened scan. Stacks without factor
forms are scored directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import transforms
from .catalog import CodeDefinition, build, t8_cr_angles
from .modem import Constellation, lex_vectors, make_qam
from .simulate import MAX_WORKERS

#: a minimum determinant below this is treated as rank-deficient (no diversity)
FULL_DIVERSITY_TOL = 1e-9

#: largest pattern count one group of either search scope may enumerate
PATTERN_BUDGET = 10_000_000

#: largest number of patterns enumerated and scored at once
PATTERN_CHUNK = 65536

#: most angles one theta sweep may evaluate
MAX_THETA_POINTS = 10_000

#: angles of a theta sweep whose case rows are computed at once
CASE_BLOCK = 512

#: bound on the error of a screened or LU determinant, relative to the row's
#: Gram norm to the power Nt; about 1e5 times the LU perturbation bound
SCREEN_RTOL = 1e-9


class PatternBudgetError(ValueError):
    """Raised when an enumeration would exceed the pattern budget."""

    def __init__(self, count: int):
        super().__init__(f"enumeration of {count} error patterns exceeds "
                         f"budget {PATTERN_BUDGET}")
        self.count = count


def distance_det(code: CodeDefinition, deltas) -> float:
    """det((DC)^H DC) for the error pattern DC = sum_p deltas[p] A_p."""
    d = np.asarray(deltas, dtype=np.float64)
    if d.shape != (2 * code.K,):
        raise ValueError(
            f"error pattern has shape {d.shape}, expected ({2 * code.K},)"
        )
    return float(_batched_dets(code.dispersion, d[None])[0])


def case_dets(m: int, n: int, theta: float):
    """The four error-case determinants for a rotated rail pair, over d_min^8.

    Cases: (0, n*d), (m*d, 0), (m*d, n*d), (m*d, -n*d) with integer
    multipliers 1 <= m, n <= sqrt(M) - 1.
    """
    if m < 1 or n < 1:
        raise ValueError("multipliers must be positive integers")
    c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
    return (
        (n * n * c2) ** 4,
        (m * m * c2) ** 4,
        ((m * m - n * n) * c2 - 2 * m * n * s2) ** 4,
        ((m * m - n * n) * c2 + 2 * m * n * s2) ** 4,
    )


# --------------------------------------------------------------------------
# pattern enumeration

def _multipliers(constellation: Constellation) -> np.ndarray:
    """PAM difference multipliers 0, +-1, ..., +-(levels - 1), ascending."""
    top = constellation.levels_per_rail - 1
    return np.arange(-top, top + 1)


def _patterns(mult: np.ndarray, width: int):
    """Yield the patterns of ``width`` rails whose first nonzero multiplier
    is negative, one of each nonzero pair +-c: the lexicographic indices
    below the zero pattern's, as float rows (first rail slowest) in chunks
    of at most PATTERN_CHUNK rows."""
    half = len(mult) ** width // 2
    for lo in range(0, half, PATTERN_CHUNK):
        yield lex_vectors(mult, width,
                          np.arange(lo, min(lo + PATTERN_CHUNK, half)))


def _embed(rows: np.ndarray, rails, n_rails: int) -> np.ndarray:
    """Rows supported on ``rails`` (0-based) widened to ``n_rails`` rails."""
    out = np.zeros((len(rows), n_rails))
    out[:, rails] = rows
    return out


def _batched_dets(stack: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Gram determinants of sum_p coeffs[r, p] * A_p for every row r."""
    out = np.empty(len(coeffs))
    for lo in range(0, len(coeffs), PATTERN_CHUNK):
        c = coeffs[lo:lo + PATTERN_CHUNK]
        dc = np.einsum("rp,ptn->rtn", c, stack)
        gram = np.einsum("rtm,rtn->rmn", dc.conj(), dc)
        out[lo:lo + PATTERN_CHUNK] = np.linalg.det(gram).real
    return out


def _near_min(q: np.ndarray, axis=None) -> np.ndarray:
    """Mask of the rows whose exact determinant can be the minimum along
    ``axis`` of the rows; ``q`` (F, ...) holds every row's factor values
    q_k, and a row is kept when it lies within SCREEN_RTOL * max_k |q_k|^(2F)
    of the smallest upper bound."""
    approx = np.prod(q, axis=0) ** 2
    tol = SCREEN_RTOL * np.abs(q).max(axis=0) ** (2 * len(q))
    return approx - tol <= (approx + tol).min(axis=axis, keepdims=True)


def _form_blocks(forms: np.ndarray, mult: np.ndarray):
    """Yield (lo, q): q (F, R) holds the factor values q_k = c^T M_k c of the
    :func:`_patterns` rows lo .. lo + R - 1, R <= PATTERN_CHUNK, from tables.

    A pattern c = (a, b) splits into its first w // 2 rails and the rest, so
    q_k = a^T M_aa a + b^T M_bb b + 2 a^T M_ab b. The two square terms are
    tabled once over every prefix and every suffix; the cross term is one
    matrix product per block of prefixes. Row i * L^w2 + j (prefix i, suffix
    j, L multipliers) keeps the lexicographic order.
    """
    f, width, _ = forms.shape
    w1 = width // 2
    heads, tails = lex_vectors(mult, w1), lex_vectors(mult, width - w1)
    qa = np.einsum("ia,fab,ib->fi", heads, forms[:, :w1, :w1], heads)
    qb = np.einsum("ja,fab,jb->fj", tails, forms[:, w1:, w1:], tails)
    cross = 2 * forms[:, :w1, w1:]
    n_tails = len(tails)
    half = len(mult) ** width // 2
    step = max(1, PATTERN_CHUNK // n_tails)
    for i in range(0, -(-half // n_tails), step):
        q = (heads[i:i + step] @ cross) @ tails.T
        q += qa[:, i:i + step, None]
        q += qb[:, None, :]
        lo = i * n_tails
        yield lo, q.reshape(f, -1)[:, :half - lo]


def _min_pattern(stack: np.ndarray, mult: np.ndarray, rails):
    """Smallest determinant over the nonzero patterns on ``rails`` and its
    first argmin row; stacks with factor forms go through the screen, and
    only the patterns it keeps are decoded."""
    width = len(rails)
    forms = _det_factor_forms(stack[rails])
    if forms is None:
        chunks = _patterns(mult, width)
    else:
        chunks = (lex_vectors(mult, width, lo + np.flatnonzero(_near_min(q)))
                  for lo, q in _form_blocks(forms, mult))
    best_val, best_pat = math.inf, None
    for rows in chunks:
        coeffs = _embed(rows, rails, len(stack))
        dets = _batched_dets(stack, coeffs)
        k = int(np.argmin(dets))
        if dets[k] < best_val:
            best_val, best_pat = float(dets[k]), coeffs[k]
    return best_val, best_pat


@dataclass(frozen=True)
class GroupMinimum:
    group: tuple
    min_det: float
    argmin: np.ndarray  # deltas, length 2K


@dataclass(frozen=True)
class MinDetReport:
    scope: str
    min_det: float
    argmin: np.ndarray  # deltas, length 2K
    per_group: tuple    # GroupMinimum per group (within-group scope only)


def min_det_search(code: CodeDefinition, constellation: Constellation,
                   scope: str = "within_group") -> MinDetReport:
    """Minimum distance determinant over PAM error patterns.

    ``within_group`` enumerates nonzero patterns supported on one symbol
    group at a time (the cross-group terms cancel after matched filtering,
    so this is the operative minimum for grouped detection). ``full``
    enumerates patterns over all 2K rails as one group. Either scope raises
    PatternBudgetError before scoring when a group has over PATTERN_BUDGET
    patterns. Ties break toward the lexicographically smallest pattern.
    """
    if scope not in ("within_group", "full"):
        raise ValueError(f"unknown search scope {scope!r}")
    mult = _multipliers(constellation)
    n = 2 * code.K
    scale = constellation.d_min ** (2 * code.nt)
    groups = code.grouping if scope == "within_group" else (range(1, n + 1),)
    count = len(mult) ** max(len(g) for g in groups) - 1
    if count > PATTERN_BUDGET:
        raise PatternBudgetError(count)
    per_group = []
    for group in groups:
        val, pat = _min_pattern(code.dispersion, mult, [r - 1 for r in group])
        per_group.append(GroupMinimum(
            group=tuple(group),
            min_det=val * scale,
            argmin=pat * constellation.d_min,
        ))
    best = min(per_group, key=lambda g: (g.min_det, tuple(g.argmin)))
    return MinDetReport(
        scope=scope, min_det=best.min_det, argmin=best.argmin,
        per_group=tuple(per_group) if scope == "within_group" else (),
    )


@dataclass(frozen=True)
class DiversityReport:
    zeta: float
    full_diversity: bool
    min_det: float
    report: MinDetReport


def diversity_product(code: CodeDefinition,
                      constellation: Constellation) -> DiversityReport:
    """Within-group minimum determinant mapped through the zeta normalisation."""
    rep = min_det_search(code, constellation, scope="within_group")
    zeta = _zeta_of(rep.min_det, code)
    return DiversityReport(
        zeta=zeta, full_diversity=zeta > 0, min_det=rep.min_det, report=rep
    )


# --------------------------------------------------------------------------
# mixing-angle grid search for the pairwise-grouped four-antenna code

@dataclass(frozen=True)
class ThetaSweep:
    thetas_deg: np.ndarray
    min_dets: np.ndarray
    best_theta_deg: float


def theta_grid_search(constellation: Constellation,
                      step_deg: float = 0.01) -> ThetaSweep:
    """Sweep the pair-mixing angle of the four-antenna code over [0, 45] deg.

    For each angle the within-group minimum determinant of the mixed code is
    evaluated numerically (batched Gram determinants on the base dispersion
    stack; the pair mixing only rotates the error coefficients). Every row
    is zero outside one rail pair, so a block of angles is screened from the
    rotated pairs and each pair's 2 x 2 block of Q4's factor forms; each
    angle's minimum is taken over the exact determinants of the rows that
    survive, built only then.
    """
    if not (math.isfinite(step_deg) and step_deg > 0):
        raise ValueError(f"angle step {step_deg} must be positive and finite")
    if 45.0 / step_deg + 0.5 > MAX_THETA_POINTS:
        raise ValueError(
            f"angle step {step_deg} gives more than {MAX_THETA_POINTS} angles"
        )
    base = build("Q4")
    a, b = np.vstack(list(_patterns(_multipliers(constellation), 2))).T
    scale = constellation.d_min ** 8
    thetas = np.arange(0.0, 45.0 + step_deg / 2, step_deg)
    cos = np.array([math.cos(math.radians(deg)) for deg in thetas])
    sin = np.array([math.sin(math.radians(deg)) for deg in thetas])
    forms = _det_factor_forms(base.dispersion)
    qs, vs = (np.array(rails) - 1 for rails in zip(*base.grouping))
    # q_k of a row on rail pair (q, v) from the pair's 2 x 2 block of M_k:
    # coefficients (F, G, 3) of the monomials x^2, x y, y^2
    pair_forms = np.stack([forms[:, qs, qs], 2 * forms[:, qs, vs],
                           forms[:, vs, vs]], axis=-1)
    mins = np.full(len(thetas), math.inf)
    block = max(1, PATTERN_CHUNK // (len(qs) * len(a)))
    for lo in range(0, len(thetas), block):
        c = cos[lo:lo + block, None]
        s = sin[lo:lo + block, None]
        x = a * c - b * s  # (angles, patterns), the same for every pair
        y = a * s + b * c
        q = pair_forms @ np.stack([x * x, x * y, y * y]).reshape(3, -1)
        group, angle, row = np.nonzero(
            _near_min(q.reshape(q.shape[:2] + x.shape), axis=(0, 2)))
        rot = np.zeros((len(group), 8))  # survivors only, zero off the pair
        rot[np.arange(len(group)), qs[group]] = x[angle, row]
        rot[np.arange(len(group)), vs[group]] = y[angle, row]
        np.minimum.at(mins, lo + angle,
                      _batched_dets(base.dispersion, rot))
    mins *= scale
    best = int(np.argmax(mins))
    return ThetaSweep(
        thetas_deg=thetas, min_dets=mins, best_theta_deg=float(thetas[best])
    )


def case_sweep_rows(constellation: Constellation, step_deg: float = 0.05):
    """Rows for the per-(m, n) determinant-vs-angle curves.

    Yields (theta_deg, overall_min, {(m, n): case_min}) with determinants in
    absolute units (scaled by d_min^8), the cases of :func:`case_dets` bit
    for bit. A block of angles is scored at once: the cases (0, n) and
    (m, 0) share the values (k^2 cos 2 theta)^4, and every fourth power is
    Python's (libm ``pow``), which ``np.power`` does not always equal.
    """
    top = constellation.levels_per_rail - 1
    k = np.arange(1, top + 1)
    m, n = (v.ravel() for v in np.meshgrid(k, k, indexing="ij"))
    pairs = list(zip(m.tolist(), n.tolist()))
    scale = constellation.d_min ** 8
    sweep = theta_grid_search(constellation, step_deg)
    degs, overall = sweep.thetas_deg.tolist(), sweep.min_dets.tolist()
    for lo in range(0, len(degs), CASE_BLOCK):
        block = [math.radians(deg) for deg in degs[lo:lo + CASE_BLOCK]]
        c2 = np.array([math.cos(2 * theta) for theta in block])[:, None]
        s2 = np.array([math.sin(2 * theta) for theta in block])[:, None]
        axis = _fourth_powers(k * k * c2)  # cases (0, n) and (m, 0)
        cross = (m * m - n * n) * c2
        cases = np.minimum(
            np.minimum(axis[:, n - 1], axis[:, m - 1]),
            np.minimum(_fourth_powers(cross - 2 * m * n * s2),
                       _fourth_powers(cross + 2 * m * n * s2))) * scale
        for i, row in enumerate(cases.tolist()):
            yield degs[lo + i], overall[lo + i], dict(zip(pairs, row))


def _fourth_powers(x: np.ndarray) -> np.ndarray:
    """x ** 4 elementwise with Python's float power."""
    return np.array(list(map(pow, x.ravel().tolist(),
                             [4] * x.size))).reshape(x.shape)


# --------------------------------------------------------------------------
# searched angles for the eight-antenna codes

def _det_factor_forms(sub_stack: np.ndarray):
    """Quadratic factor forms of a rail subset's distance determinant.

    For the catalog codes the Grams of every real combination of a group's
    (or the whole code's) dispersion matrices commute, so the determinant
    factors as det = prod_k (c^T M_k c)^2 over Nt/2 fixed symmetric forms
    M_k in the combination coefficients c. Returns the (Nt/2, m, m) form
    stack, or None when the structure does not hold (validated on random
    draws).
    """
    sub = np.asarray(sub_stack)
    m, _, nt = sub.shape
    if nt % 2:
        return None
    gen = np.einsum("ati,btk->abik", sub.conj(), sub).real
    rng = np.random.default_rng(np.random.SeedSequence([2024, m, nt]))
    c0 = rng.standard_normal(m)
    g0 = np.einsum("a,b,abik->ik", c0, c0, gen)
    _, vecs = np.linalg.eigh(g0)
    reps = vecs[:, 0::2]  # one eigenvector per doubled eigenvalue
    forms = np.einsum("if,abik,kf->fab", reps, gen, reps)
    forms = 0.5 * (forms + forms.transpose(0, 2, 1))
    for _ in range(4):  # validate against the direct determinant
        c = rng.standard_normal(m)
        dc = np.einsum("a,ati->ti", c, sub)
        direct = float(np.linalg.det(dc.conj().T @ dc).real)
        fac = float(np.prod(np.einsum("a,fab,b->f", c, forms, c)) ** 2)
        if abs(direct - fac) > 1e-9 * max(abs(direct), 1.0):
            return None
    return forms


def _zeta_of(min_det: float, code: CodeDefinition) -> float:
    """Diversity product of a d_min-scaled minimum determinant of ``code``;
    0 when the minimum is at most FULL_DIVERSITY_TOL (no full diversity)."""
    if min_det <= FULL_DIVERSITY_TOL:
        return 0.0
    return (1.0 / (2.0 * math.sqrt(code.nt))) * min_det ** (1.0 / (2.0 * code.T))


def _mixed_min_det(base: CodeDefinition, constellation: Constellation, rails):
    """Return ``mixes -> min dets``: for an (S, w, w) stack of mixes, the S
    minima (scaled by d_min^(2 Nt)) over the :func:`_patterns` on ``rails``
    (1-based) of ``base`` times each mix. The rails' factor forms are
    contracted by one einsum over the S * R stacked pattern rows (the
    :func:`_near_min` order moves the last bits and the angles ``search-t8``
    finds); a row's value does not depend on the rows stacked with it, so a
    mix scores the same alone as in any stack. Every caller's rails (T8's
    groups, Q8_CR's and T8_CR's) have factor forms, so there is no
    determinant fallback."""
    sub = base.dispersion[[r - 1 for r in rails]]
    pats = np.vstack(list(_patterns(_multipliers(constellation), len(rails))))
    scale = constellation.d_min ** (2 * base.nt)
    forms = _det_factor_forms(sub)

    def min_dets(mixes: np.ndarray) -> np.ndarray:
        coeffs = (pats @ mixes).reshape(-1, len(rails))
        q = np.einsum("ra,fab,rb->rf", coeffs, forms, coeffs)
        dets = (np.prod(q, axis=1) ** 2).reshape(len(mixes), len(pats))
        return dets.min(axis=1) * scale

    return min_dets


def _zetas_of(min_dets, code: CodeDefinition) -> list:
    """:func:`_zeta_of` of each of a sequence of minima, as floats."""
    return [_zeta_of(v, code) for v in np.asarray(min_dets).tolist()]


def _t8_objective(constellation: Constellation):
    """Diversity products of the rate-1 eight-antenna code with every group
    mixed by each of an (S, 4, 4) stack of mixes; the within-group power
    cross-traces vanish, so the mixing needs no renormalisation.

    Groups whose factor forms are byte-equal are scored once. An evaluator
    reads only the forms, the patterns (set by the constellation and the
    group width, which the forms' shape fixes) and the shared mix, so equal
    forms give bit-equal minima and the minimum over the distinct forms is
    the minimum over every group. T8's four groups share one set of forms.
    """
    base = build("T8")
    distinct = {}  # factor-form bytes -> first group with those forms
    for group in base.grouping:
        sub = base.dispersion[[r - 1 for r in group]]
        distinct.setdefault(_det_factor_forms(sub).tobytes(), group)
    min_dets = [_mixed_min_det(base, constellation, group)
                for group in distinct.values()]

    def objective(mixes: np.ndarray) -> np.ndarray:
        worst = np.min([min_det(mixes) for min_det in min_dets], axis=0)
        return np.array(_zetas_of(worst, base))

    return objective


def _golden_max(fun, lo: float, hi: float, count: int) -> np.ndarray:
    """Points of golden-section maximisation on [lo, hi], 25 iterations, of
    ``count`` functions in lockstep: ``fun`` maps ``count`` points, one per
    function, to their values. Each function's bracket takes exactly the
    comparisons and updates of a search on that function alone."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.full(count, lo), np.full(count, hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(25):
        left = fc >= fd  # keep [a, d]; else keep [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        new = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        f_new = fun(new)
        c, fc = np.where(left, new, kept), np.where(left, f_new, f_kept)
        d, fd = np.where(left, kept, new), np.where(left, f_kept, f_new)
    return (a + b) / 2.0


@dataclass(frozen=True)
class AngleSearchResult:
    angles: tuple
    zeta: float


def search_t8_angles(starts: int = 64, seed: int = 0,
                     workers: int = 1) -> AngleSearchResult:
    """Multi-start coordinate descent over the six 4-D mixing angles.

    Maximises the 4-QAM diversity product of the mixed rate-1 eight-antenna
    code. Each start draws its initial angles from the substream
    (seed, start index) and runs three sweeps of golden-section line
    searches coordinate by coordinate. The starts run in lockstep: each
    step of a line search scores every start's point in one objective call.
    ``workers`` threads each run one contiguous share of the starts in
    lockstep; a start's steps do not depend on the starts it runs with, so
    the result is deterministic for a given seed regardless of the worker
    count, with ties broken toward the lexicographically smallest angle
    vector.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be between 1 and {MAX_WORKERS}")
    objective = _t8_objective(make_qam(4))
    half_pi = math.pi / 2

    def run_starts(indices) -> list:
        angles = np.array([
            np.random.default_rng(np.random.SeedSequence([seed, int(i)]))
            .uniform(-half_pi, half_pi, size=6) for i in indices
        ]).reshape(-1, 6)
        for _ in range(3):
            for j in range(6):
                line = transforms.givens_4d_line(angles, j)
                angles[:, j] = _golden_max(lambda t: objective(line(t)),
                                           -half_pi, half_pi, len(angles))
        zetas = objective(transforms.givens_4d(angles))
        return [(-z, tuple(row)) for z, row in zip(zetas.tolist(),
                                                   angles.tolist())]

    shares = np.array_split(np.arange(starts), workers)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = [r for share in pool.map(run_starts, shares)
                       for r in share]
    else:
        results = run_starts(shares[0])
    neg_zeta, angles = min(results)
    return AngleSearchResult(angles=angles, zeta=-neg_zeta)


def search_q8_cr_angle() -> AngleSearchResult:
    """1-D search of the common rotation angle for the eight-antenna
    rate-3/4 code (symbols 4..6 rotated) over a 0.25-degree grid, scored on
    the base code's patterns rotated within the rotated code's groups; each
    group scores every angle of the grid in one call."""
    base = build("Q8")
    phis = np.array([math.radians(deg) for deg in np.arange(0.25, 90.0, 0.25)])
    rot = transforms.cr_rotation(base.K, [(s, phis) for s in (4, 5, 6)])
    worst = np.min([_mixed_min_det(base, make_qam(4), g)(_blocks(rot, g))
                    for g in build("Q8_CR").grouping], axis=0)
    zetas = _zetas_of(worst, base)
    best = int(np.argmax(zetas))  # the first angle of the best value
    return AngleSearchResult(angles=(float(phis[best]),), zeta=zetas[best])


def _blocks(rot: np.ndarray, rails) -> np.ndarray:
    """The (S, w, w) blocks of an (S, n, n) rotation stack on ``rails``
    (1-based)."""
    idx = [r - 1 for r in rails]
    return rot[:, idx][:, :, idx]


def search_t8_cr_steps() -> AngleSearchResult:
    """Small-grid search of the two rotation-progression steps for T8_CR.

    The two coupled symbol families get the angles (0, d, 2d, 3d) of
    :func:`catalog.t8_cr_angles`, each family step d below 30 degrees (so
    every angle stays inside the rotation range). The grid over the two
    steps is a 2.5-degree pass, then a 0.25-degree one around its best
    pair. Returns the eight per-symbol angles of the best pair found.
    """
    coarse_deg, fine_deg = 2.5, 0.25
    base = build("T8")
    # rotating a family's symbols merges its real and imaginary rail groups
    # into one group of T8_CR; group i holds family i
    merged = build("T8_CR").grouping
    min_dets = [_mixed_min_det(base, make_qam(4), rails) for rails in merged]
    top_deg = 30.0 - fine_deg  # keep 3d strictly inside [0, 90) degrees

    # the pair's value is the smaller of the two families' values, each a
    # function of its own step alone, so each family scores the grid's
    # steps in one call
    def family_min_dets(index: int, steps_deg) -> list:
        steps = np.array([math.radians(d) for d in steps_deg])
        rot = transforms.cr_rotation(base.K, t8_cr_angles((steps, steps)))
        return min_dets[index](_blocks(rot, merged[index])).tolist()

    def grid(d1_values, d2_values, best=None):
        first = family_min_dets(0, d1_values)
        second = family_min_dets(1, d2_values)
        for d1, v1 in zip(d1_values, first):
            for d2, v2 in zip(d2_values, second):
                z = _zeta_of(min(v1, v2), base)
                if best is None or z > best[0]:
                    best = (z, d1, d2)
        return best

    def fine(center: float):
        return np.arange(max(fine_deg, center - coarse_deg),
                         min(top_deg, center + coarse_deg) + fine_deg / 2,
                         fine_deg)

    steps = np.arange(coarse_deg, top_deg, coarse_deg)
    _, d1, d2 = best = grid(steps, steps)
    zeta, d1, d2 = grid(fine(d1), fine(d2), best)
    angles = t8_cr_angles((math.radians(d1), math.radians(d2)))
    return AngleSearchResult(angles=tuple(phi for _, phi in angles),
                             zeta=zeta)
