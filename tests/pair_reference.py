"""Reference implementations of the three readers of the pair products.

The library reads a code's grouping, the decoder's Gram classes and the
coding-gain factor forms off one tensor, ``analysis.pair_products``. The
functions here compute each of them by a second route: the grouping by a
depth-first search of the coupled rail pairs, the Gram classes from the
real expansions S of the dispersion matrices (Q_ij = sym(S_i^T S_j)), and
the factor forms from their own pair-product einsum. The tests compare the
library against them bit for bit, on the catalog and on
:func:`mixed_codes`.
"""

import numpy as np

from qostbc.analysis import QO_TOL, _anticommutator_table
from qostbc.catalog import build
from qostbc.transforms import GcltSpec, apply_cr, apply_gclt


def dfs_components(stack):
    """Symbol groups of a stack by depth-first search of its coupled pairs."""
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


def expansion_gram_classes(stack_rows):
    """Gram classes (reps, signs) of a group's (g, 2T, 2Nt) real expansion
    sub-stack, from Q_ij = sym(S_i^T S_j) within QO_TOL (max-norm); signs
    is the symmetric (R, g, g) sign array."""
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
    g = len(stack_rows)
    signs = np.zeros((len(reps), g, g))
    merge = np.reshape(merge, (len(reps), len(rows)))
    signs[:, rows, cols] = signs[:, cols, rows] = merge
    return np.array(reps, dtype=np.intp).reshape(-1, 2), signs


def einsum_factor_forms(sub):
    """Factor forms of an (m, T, Nt) sub-stack from the generator
    Re(A_a^H A_b) of its own einsum (the forms are not validated)."""
    m, _, nt = sub.shape
    gen = np.einsum("ati,btk->abik", sub.conj(), sub).real
    rng = np.random.default_rng(np.random.SeedSequence([2024, m, nt]))
    c0 = rng.standard_normal(m)
    g0 = np.einsum("a,b,abik->ik", c0, c0, gen)
    _, vecs = np.linalg.eigh(g0)
    reps = vecs[:, 0::2]
    forms = np.einsum("if,abik,kf->fab", reps, gen, reps)
    return 0.5 * (forms + forms.transpose(0, 2, 1))


def mixed_codes(name, count, seed):
    """``count`` random GCLT mixes and ``count`` random CR rotations of the
    catalog code ``name``, drawn from ``seed``.

    Each GCLT mix gives every group its own random orthogonal matrix (the
    Q of a Gaussian matrix); each CR rotation turns a random nonempty subset
    of the symbols by random angles in [0, pi/2).
    """
    base = build(name)
    rng = np.random.default_rng(seed)
    gclt, cr = [], []
    for _ in range(count):
        mats = [np.linalg.qr(rng.standard_normal((len(g), len(g))))[0]
                for g in base.grouping]
        gclt.append(apply_gclt(base, GcltSpec(base.grouping, mats)))
        symbols = np.flatnonzero(rng.random(base.K) < 0.5) + 1
        if not len(symbols):
            symbols = rng.integers(1, base.K + 1, 1)
        angles = rng.uniform(0.0, np.pi / 2, len(symbols))
        cr.append(apply_cr(base, [(int(s), float(a))
                                  for s, a in zip(symbols, angles)]))
    return gclt, cr
