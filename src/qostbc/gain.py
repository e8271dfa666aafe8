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
:func:`_mixed_min_det`, scores the base-code patterns of a list of rail
sets under a stack of mixes in one call, and a single mix is a stack of
one; a mix's minimum does not depend on the mixes stacked with it. Each
step of a search is one call: ``search-t8`` runs its starts in lockstep
and scores every start's next point together, and the CR searches score a
whole grid of angles at once. :func:`_zeta_of` is the one place that maps
a minimum to zeta. Under a shared mix, rail sets with byte-equal factor
forms give bit-equal minima and are scored once (T8's four groups).

Each enumeration scores one pattern of every pair +-c, the lexicographically
first (:func:`_patterns`): -c has the bit-equal determinant of c and mixes
to exactly -(c @ mix), so the minimum and first argmin are the full scan's.

A rail set is the unit every search scores: its rows cover only its rails
and are scored on its own sub-stack of the dispersion, which gives the
zero-padded full-width values bit for bit (tested on every catalog group at
4- and 16-QAM and the sweep's rotated pairs). Only a reported argmin is
widened to all 2K rails.

Every enumeration is screened before it is scored. A QO-STBC Gram has paired
eigenvalues q_1, q_1, ..., q_F, q_F (F = Nt/2), each a quadratic form
q_k = c^T M_k c in the pattern c (:func:`_det_factor_forms`, read off the
real part of :func:`analysis.pair_products`), so its determinant is
prod_k q_k^2. The q_k come from small tables, not from
materialised pattern rows (:func:`_form_blocks`): with c = (a, b) split into
its first w // 2 rails and the rest, q_k = a^T M_aa a + b^T M_bb b
+ 2 a^T M_ab b, the square terms tabled once over the prefixes and the
suffixes and the cross term one matrix product per block of prefixes. The
angle sweep (:func:`case_sweep_rows`) screens each block of rotated pair
rows with each pair's own forms, contracted as in :func:`_mixed_min_det`.
Only the rows the screen keeps (built only then from the tables, bit for
bit as the unscreened scan builds them) are given the exact determinant
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
value is the first argmin of the unscreened scan. Every catalog rail set
has factor forms; a stack without them is rejected with ValueError; the
forms of a sub-stack are derived once per content (a bounded cache).

Every einsum over pattern rows (:func:`_batched_dets`, the tables of
:func:`_form_blocks`, :func:`_mixed_min_det`) keeps the row axis contiguous
and innermost, so numpy's inner loop runs over many rows instead of the
2-4 summed entries of one. Only the free row index moves: each output adds
the same products in the same order, lexicographic over its summed indices
from 0, so every value equals the row-major layout's bit for bit (the
row-major forms are kept as test oracles).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import transforms
from .analysis import CodeDefinition, pair_products
from .catalog import CR_SYMBOLS, build, t8_cr_angles
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

#: most multi-start runs one :func:`search_t8_angles` call may make
MAX_STARTS = 10_000

#: bound on the error of a screened or LU determinant, relative to the row's
#: Gram norm to the power Nt; about 1e5 times the LU perturbation bound
SCREEN_RTOL = 1e-9


class PatternBudgetError(ValueError):
    """Raised when an enumeration would exceed the pattern budget."""

    def __init__(self, count: int):
        super().__init__(f"enumeration of {count} error patterns exceeds "
                         f"budget {PATTERN_BUDGET}")
        self.count = count


# --------------------------------------------------------------------------
# pattern enumeration

def _multipliers(constellation: Constellation) -> np.ndarray:
    """PAM difference multipliers 0, +-1, ..., +-(levels - 1), ascending."""
    top = constellation.levels_per_rail - 1
    return np.arange(-top, top + 1)


def _patterns(mult: np.ndarray, width: int) -> np.ndarray:
    """The patterns of ``width`` rails whose first nonzero multiplier is
    negative, one of each nonzero pair +-c: the lexicographic indices below
    the zero pattern's, as float rows (first rail slowest)."""
    return lex_vectors(mult, width, np.arange(len(mult) ** width // 2))


def _batched_dets(stack: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Gram determinants of sum_p coeffs[r, p] * A_p for every row r.

    Rows are the innermost, contiguous axis of both contractions: the
    coefficients are stored (P, R), the combinations (T, Nt, R) and the
    Grams (Nt, Nt, R), so each einsum loops over the rows rather than over
    the 1-12 summed entries. Only the free row index moved inward: each
    entry still adds the same products in the same order (over p, and for
    the Gram over t, from 0) as the row-major "rp,ptn->rtn" and
    "rtm,rtn->rmn", so every determinant is bit-equal.
    """
    out = np.empty(len(coeffs))
    for lo in range(0, len(coeffs), PATTERN_CHUNK):
        c = np.ascontiguousarray(coeffs[lo:lo + PATTERN_CHUNK].T)
        dc = np.einsum("pr,ptn->tnr", c, stack)
        gram = np.moveaxis(np.einsum("tmr,tnr->mnr", dc.conj(), dc), -1, 0)
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
    j, L multipliers) keeps the lexicographic order. The square-term tables
    contract the prefixes and suffixes stored (rail, row), rows innermost;
    each entry adds (c_a M_ab) c_b over (a, b) in lexicographic order from
    0, as the row-major contraction does, so the tables are bit-equal.
    """
    f, width, _ = forms.shape
    w1 = width // 2
    heads, tails = lex_vectors(mult, w1), lex_vectors(mult, width - w1)
    ha, tb = np.ascontiguousarray(heads.T), np.ascontiguousarray(tails.T)
    qa = np.einsum("ai,fab,bi->fi", ha, forms[:, :w1, :w1], ha)
    qb = np.einsum("aj,fab,bj->fj", tb, forms[:, w1:, w1:], tb)
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
    first argmin, widened to every rail of ``stack``. The screen keeps the
    patterns that can attain the minimum; only those are decoded, as rows
    over ``rails`` alone, and scored on the rails' own sub-stack."""
    sub = stack[rails]
    best_val, best_row = math.inf, None
    for lo, q in _form_blocks(_det_factor_forms(sub), mult):
        rows = lex_vectors(mult, len(rails), lo + np.flatnonzero(_near_min(q)))
        dets = _batched_dets(sub, rows)
        k = int(np.argmin(dets))
        if dets[k] < best_val:
            best_val, best_row = float(dets[k]), rows[k]
    pattern = np.zeros(len(stack))
    pattern[rails] = best_row
    return best_val, pattern


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
    report: MinDetReport

    @property
    def min_det(self) -> float:
        return self.report.min_det

    @property
    def full_diversity(self) -> bool:
        return self.zeta > 0


def diversity_product(code: CodeDefinition,
                      constellation: Constellation) -> DiversityReport:
    """Within-group minimum determinant mapped through the zeta normalisation."""
    rep = min_det_search(code, constellation, scope="within_group")
    return DiversityReport(zeta=_zeta_of(rep.min_det, code), report=rep)


# --------------------------------------------------------------------------
# mixing-angle sweep for the pairwise-grouped four-antenna code

def case_sweep_rows(constellation: Constellation, step_deg: float = 0.05):
    """Rows of the four-antenna code's determinant-vs-mixing-angle curves.

    Yields (theta_deg, overall_min, cases) for theta over [0, 45] degrees in
    steps of ``step_deg``; angles above 45 degrees, which a step that does
    not divide 45 would reach, are left out. Determinants are in absolute
    units (scaled by d_min^8).

    overall_min is the within-group minimum determinant of Q4 with every
    rail pair mixed by :func:`transforms.rotation_2d` (the mixing of
    ``transform --gclt-theta``), scored on the base dispersion: a pattern
    (a, b) of a pair becomes a * mix[0] + b * mix[1], one product and one
    sum per entry as the inline a cos - b sin, a sin + b cos. One pass over
    the angles takes blocks of at most PATTERN_CHUNK rotated rows. Each
    pair's rows get their factor values from that pair's own forms, in
    :func:`_mixed_min_det`'s contraction with one more free index (the
    pair); a row is kept when it can be its angle's minimum over all four
    pairs, and the kept rows get the exact determinant on their pair's
    (2, T, Nt) sub-stack.

    cases lists, in (m, n) order with n fastest, 1 <= m, n <= sqrt(M) - 1,
    the least of the four error cases (0, n d), (m d, 0), (m d, n d) and
    (m d, -n d) of a rotated rail pair: bit for bit the scalar formulas
    (n^2 c)^4, (m^2 c)^4 and ((m^2 - n^2) c -+ 2 m n s)^4, c = cos 2 theta
    and s = sin 2 theta. The cases (0, n) and (m, 0) share the values
    (k^2 c)^4, and every fourth power is Python's (libm ``pow``), which
    ``np.power`` does not always equal. Each pair is computed once for
    (m, n) and (n, m), m <= n: the cross terms of (n, m) are the exact
    negatives of those of (m, n), and ``pow(-x, 4) == pow(x, 4)``.
    """
    if not (math.isfinite(step_deg) and step_deg > 0):
        raise ValueError(f"angle step {step_deg} must be positive and finite")
    if 45.0 / step_deg + 0.5 > MAX_THETA_POINTS:
        raise ValueError(
            f"angle step {step_deg} gives more than {MAX_THETA_POINTS} angles"
        )
    base = build("Q4")
    pairs = [base.dispersion[[q - 1, v - 1]] for q, v in base.grouping]
    forms = np.stack([_det_factor_forms(pair) for pair in pairs])
    pats = _patterns(_multipliers(constellation), 2)
    a, b = pats[:, :1], pats[:, 1:]
    top = constellation.levels_per_rail - 1
    k = np.arange(1, top + 1)
    m, n = (v + 1 for v in np.triu_indices(top))  # m <= n
    column = np.zeros((top, top), dtype=np.intp)  # (m, n) -> its m <= n case
    column[m - 1, n - 1] = column[n - 1, m - 1] = np.arange(len(m))
    scale = constellation.d_min ** 8
    degs = np.arange(0.0, 45.0 + step_deg / 2, step_deg)
    degs = degs[degs <= 45.0].tolist()
    block = max(1, PATTERN_CHUNK // (len(pairs) * len(pats)))
    for lo in range(0, len(degs), block):
        thetas = [math.radians(deg) for deg in degs[lo:lo + block]]
        mix = transforms.rotation_2d(thetas)
        rows = a * mix[:, None, 0] + b * mix[:, None, 1]  # (angles, R, 2)
        coeffs = np.ascontiguousarray(rows.reshape(-1, 2).T)
        q = np.einsum("ar,gfab,br->fgr", coeffs, forms, coeffs)
        keep = _near_min(q.reshape(q.shape[:2] + rows.shape[:2]),
                         axis=(0, 2))
        mins = np.full(len(thetas), math.inf)
        for pair, kept in zip(pairs, keep):
            angle, row = np.nonzero(kept)
            np.minimum.at(mins, angle, _batched_dets(pair, rows[angle, row]))
        c2 = np.array([math.cos(2 * theta) for theta in thetas])[:, None]
        s2 = np.array([math.sin(2 * theta) for theta in thetas])[:, None]
        axis = _fourth_powers(k * k * c2)  # cases (0, n) and (m, 0)
        cross = (m * m - n * n) * c2
        cases = np.minimum(
            np.minimum(axis[:, n - 1], axis[:, m - 1]),
            np.minimum(_fourth_powers(cross - 2 * m * n * s2),
                       _fourth_powers(cross + 2 * m * n * s2))) * scale
        yield from zip(degs[lo:lo + block], (mins * scale).tolist(),
                       cases[:, column.ravel()].tolist())


def _fourth_powers(x: np.ndarray) -> np.ndarray:
    """x ** 4 elementwise with Python's float power."""
    return np.array(list(map(pow, x.ravel().tolist(),
                             [4] * x.size))).reshape(x.shape)


# --------------------------------------------------------------------------
# searched angles for the eight-antenna codes

def _det_factor_forms(sub_stack: np.ndarray) -> np.ndarray:
    """Quadratic factor forms of a rail subset's distance determinant.

    For the catalog codes the Grams of every real combination of a group's
    (or the whole code's) dispersion matrices commute, so the determinant
    factors as det = prod_k (c^T M_k c)^2 over Nt/2 fixed symmetric forms
    M_k in the combination coefficients c. Returns the read-only
    (Nt/2, m, m) form stack; raises ValueError when the structure does not
    hold (odd Nt, or a random draw whose direct determinant the forms do not
    reproduce). Forms are derived once per sub-stack content, never keyed by
    code name: ``transforms.apply_gclt`` and ``apply_cr`` name every
    transformed code after its base, whatever its angles. A stack that
    raises is not cached.
    """
    sub = np.asarray(sub_stack)
    return _stack_forms(sub.tobytes(), sub.shape, sub.dtype.str)


@functools.lru_cache(maxsize=256)
def _stack_forms(stack_bytes: bytes, shape: tuple, dtype: str) -> np.ndarray:
    """:func:`_det_factor_forms` of a sub-stack given by its bytes."""
    sub = np.frombuffer(stack_bytes, dtype=dtype).reshape(shape)
    m, _, nt = sub.shape
    if nt % 2:
        raise ValueError(f"a stack with {nt} transmit antennas has no "
                         "factor forms (Nt must be even)")
    gen = pair_products(sub).real
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
            raise ValueError(
                f"the distance determinant of this {m}-rail stack does not "
                f"factor into quadratic forms ({fac!r} != {direct!r})")
    forms.flags.writeable = False
    return forms


def _zeta_of(min_det: float, code: CodeDefinition) -> float:
    """Diversity product of a d_min-scaled minimum determinant of ``code``;
    0 when the minimum is at most FULL_DIVERSITY_TOL (no full diversity)."""
    if min_det <= FULL_DIVERSITY_TOL:
        return 0.0
    return (1.0 / (2.0 * math.sqrt(code.nt))) * min_det ** (1.0 / (2.0 * code.T))


def _mixed_min_det(base: CodeDefinition, constellation: Constellation,
                   groups):
    """Return ``mixes -> min dets``: for an (S, w, w) stack of mixes shared
    by every rail set in ``groups`` (1-based, each of width w), the S minima
    (scaled by d_min^(2 Nt)) over those rail sets and the :func:`_patterns`
    on each of ``base`` times each mix. The rails' factor forms are
    contracted by one einsum over the S * R stacked pattern rows (the
    :func:`_near_min` order moves the last bits and the angles ``search-t8``
    finds). The coefficients are stored (w, S * R), rows innermost, so the
    einsum loops over the rows; each q_k still adds (c_a M_ab) c_b over
    (a, b) in lexicographic order from 0, as the row-major "ra,fab,rb->rf"
    does, so no bit moves. A row's value does not depend on the rows
    stacked with it, so a mix scores the same alone as in any stack. Rail
    sets whose forms are byte-equal are scored once: a rail set's minima
    read only its forms, the patterns (set by the constellation and w) and
    the mix, so equal forms give bit-equal minima."""
    distinct = {}  # factor-form bytes -> forms
    for rails in groups:
        forms = _det_factor_forms(base.dispersion[[r - 1 for r in rails]])
        distinct.setdefault(forms.tobytes(), forms)
    width = len(groups[0])
    pats = _patterns(_multipliers(constellation), width)
    scale = constellation.d_min ** (2 * base.nt)

    def min_dets(mixes: np.ndarray) -> np.ndarray:
        coeffs = np.ascontiguousarray((pats @ mixes).reshape(-1, width).T)
        dets = np.min([
            np.prod(np.einsum("ar,fab,br->fr", coeffs, forms, coeffs),
                    axis=0) ** 2 for forms in distinct.values()], axis=0)
        return dets.reshape(len(mixes), len(pats)).min(axis=1) * scale

    return min_dets


def _t8_objective(constellation: Constellation):
    """Diversity products of the rate-1 eight-antenna code with every group
    mixed by each of an (S, 4, 4) stack of mixes; the within-group power
    cross-traces vanish, so the mixing needs no renormalisation. T8's four
    groups have byte-equal factor forms, so one of them is scored."""
    base = build("T8")
    min_dets = _mixed_min_det(base, constellation, base.grouping)

    def objective(mixes: np.ndarray) -> np.ndarray:
        return np.array([_zeta_of(v, base) for v in min_dets(mixes).tolist()])

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
    if not 1 <= starts <= MAX_STARTS:
        raise ValueError(f"starts must be between 1 and {MAX_STARTS}")
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


def _cr_min_dets(base: CodeDefinition, rails, angles) -> np.ndarray:
    """4-QAM minimum determinants of ``base``'s rail set ``rails`` (1-based)
    under each CR rotation of the (symbol, angle array) pairs ``angles``:
    the rotation's block on the rails mixes the base code's patterns."""
    idx = [r - 1 for r in rails]
    rot = transforms.cr_rotation(base.K, angles)[:, idx][:, :, idx]
    return _mixed_min_det(base, make_qam(4), [rails])(rot)


def search_q8_cr_angle() -> AngleSearchResult:
    """1-D search of the common rotation angle of ``CR_SYMBOLS["Q8_CR"]`` in
    the eight-antenna rate-3/4 code over a 0.25-degree grid, scored on the
    base code's patterns rotated within the rotated code's groups; each
    group scores every angle of the grid in one call."""
    base = build("Q8")
    phis = np.array([math.radians(deg) for deg in np.arange(0.25, 90.0, 0.25)])
    angles = [(s, phis) for s in CR_SYMBOLS["Q8_CR"]]
    worst = np.min([_cr_min_dets(base, g, angles)
                    for g in build("Q8_CR").grouping], axis=0)
    zetas = [_zeta_of(v, base) for v in worst.tolist()]
    best = int(np.argmax(zetas))  # the first angle of the best value
    return AngleSearchResult(angles=(float(phis[best]),), zeta=zetas[best])


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
    top_deg = 30.0 - fine_deg  # keep 3d strictly inside [0, 90) degrees

    # the pair's value is the smaller of the two families' values, each a
    # function of its own step alone, so each family scores the grid's
    # steps in one call
    def family_min_dets(index: int, steps_deg) -> list:
        steps = np.array([math.radians(d) for d in steps_deg])
        return _cr_min_dets(base, merged[index],
                            t8_cr_angles((steps, steps))).tolist()

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
